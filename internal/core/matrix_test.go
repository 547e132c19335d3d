package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.Float64()*2-1)
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Pairs() != 12 {
		t.Fatalf("dims: %d %d %d", m.Rows(), m.Cols(), m.Pairs())
	}
	m.Set(1, 2, 0.5)
	if m.At(1, 2) != 0.5 {
		t.Error("Set/At mismatch")
	}
	row := m.Row(1)
	if len(row) != 4 || row[2] != 0.5 {
		t.Errorf("Row = %v", row)
	}
	c := m.Clone()
	c.Set(1, 2, -0.5)
	if m.At(1, 2) != 0.5 {
		t.Error("Clone aliases original")
	}
}

func TestAboveSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, 20, 30)
	got := SelectThreshold(m, 0.3)
	// completeness vs naive scan
	want := 0
	for i := 0; i < 20; i++ {
		for j := 0; j < 30; j++ {
			if m.At(i, j) >= 0.3 {
				want++
			}
		}
	}
	if len(got) != want {
		t.Fatalf("SelectThreshold returned %d, want %d", len(got), want)
	}
	for k := 1; k < len(got); k++ {
		if got[k].Score > got[k-1].Score {
			t.Fatal("SelectThreshold not sorted by descending score")
		}
	}
	for _, c := range got {
		if c.Score < 0.3 {
			t.Fatalf("SelectThreshold leaked %v", c)
		}
		if m.At(c.Src, c.Dst) != c.Score {
			t.Fatalf("SelectThreshold score mismatch %v", c)
		}
	}
}

func TestHistogram(t *testing.T) {
	m := NewMatrix(1, 4)
	m.Set(0, 0, -1) // clamps into first bin
	m.Set(0, 1, -0.5)
	m.Set(0, 2, 0.5)
	m.Set(0, 3, 0.999)
	h := Histogram(m, 4)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != 4 {
		t.Errorf("histogram total = %d, want 4", total)
	}
	if h[0] != 1 || h[1] != 1 || h[3] != 2 {
		t.Errorf("histogram = %v", h)
	}
	if got := Histogram(m, 0); len(got) != 20 {
		t.Errorf("default bins = %d, want 20", len(got))
	}
}

func TestAboveThresholdProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 8, 8)
		thr := rng.Float64()*2 - 1
		got := SelectThreshold(m, thr)
		seen := map[[2]int]bool{}
		for _, c := range got {
			if c.Score < thr {
				return false
			}
			key := [2]int{c.Src, c.Dst}
			if seen[key] {
				return false // duplicates
			}
			seen[key] = true
		}
		n := 0
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if m.At(i, j) >= thr {
					n++
				}
			}
		}
		return n == len(got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSuggestThreshold(t *testing.T) {
	// Bimodal matrix: each source has one strong true match (~0.8) and
	// noise below 0.2. The suggestion must land between the modes.
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(20, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			m.Set(i, j, rng.Float64()*0.2)
		}
		m.Set(i, (i+3)%20, 0.75+rng.Float64()*0.1)
	}
	thr := SuggestThreshold(m)
	if thr < 0.3 || thr > 0.75 {
		t.Errorf("suggestion = %f, want between noise (0.2) and signal (0.75)", thr)
	}
	sel := SelectGreedyOneToOne(m, thr)
	if len(sel) != 20 {
		t.Errorf("selection at suggestion = %d, want all 20 true pairs", len(sel))
	}
}

func TestSuggestThresholdDegenerate(t *testing.T) {
	if got := SuggestThreshold(NewMatrix(0, 0)); got != 0 {
		t.Errorf("empty matrix suggestion = %f", got)
	}
	m := NewMatrix(3, 3) // all zeros
	if got := SuggestThreshold(m); got != 0 {
		t.Errorf("all-zero suggestion = %f", got)
	}
	neg := NewMatrix(2, 2)
	neg.Set(0, 0, -0.5)
	neg.Set(1, 1, -0.2)
	if got := SuggestThreshold(neg); got != 0 {
		t.Errorf("all-negative suggestion = %f", got)
	}
}
