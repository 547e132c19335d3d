package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSelectThreshold(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0.9)
	m.Set(0, 1, 0.4)
	m.Set(1, 1, 0.7)
	got := SelectThreshold(m, 0.5)
	if len(got) != 2 {
		t.Fatalf("threshold selection = %v", got)
	}
	if got[0].Score != 0.9 || got[1].Score != 0.7 {
		t.Errorf("wrong ordering: %v", got)
	}
}

func TestGreedyOneToOneUnique(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 12, 9)
		sel := SelectGreedyOneToOne(m, 0.1)
		srcSeen := map[int]bool{}
		dstSeen := map[int]bool{}
		for _, c := range sel {
			if c.Score < 0.1 || srcSeen[c.Src] || dstSeen[c.Dst] {
				return false
			}
			srcSeen[c.Src] = true
			dstSeen[c.Dst] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGreedyTakesBestFirst(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0.9)
	m.Set(0, 1, 0.8)
	m.Set(1, 0, 0.85)
	m.Set(1, 1, 0.1)
	sel := SelectGreedyOneToOne(m, 0.05)
	// greedy: (0,0)=0.9 first, then (1,0) blocked, (0,1) blocked, so (1,1).
	if len(sel) != 2 {
		t.Fatalf("selection = %v", sel)
	}
	if sel[0].Src != 0 || sel[0].Dst != 0 {
		t.Errorf("first pick = %v", sel[0])
	}
	if sel[1].Src != 1 || sel[1].Dst != 1 {
		t.Errorf("second pick = %v", sel[1])
	}
}

func TestStableMarriageIsStable(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 10, 10)
		sel := SelectStableMarriage(m, 0.0)
		// one-to-one
		srcSeen := map[int]bool{}
		dstSeen := map[int]bool{}
		for _, c := range sel {
			if srcSeen[c.Src] || dstSeen[c.Dst] {
				return false
			}
			srcSeen[c.Src] = true
			dstSeen[c.Dst] = true
		}
		return IsStableMatching(m, sel, 0.0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStableMarriageThreshold(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0.3)
	m.Set(1, 1, 0.9)
	sel := SelectStableMarriage(m, 0.5)
	if len(sel) != 1 || sel[0].Src != 1 || sel[0].Dst != 1 {
		t.Errorf("selection = %v", sel)
	}
}

func TestStableVsGreedyBothMaximalOnDiagonal(t *testing.T) {
	m := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 0.9)
	}
	if got := SelectGreedyOneToOne(m, 0.5); len(got) != 3 {
		t.Errorf("greedy = %v", got)
	}
	if got := SelectStableMarriage(m, 0.5); len(got) != 3 {
		t.Errorf("stable = %v", got)
	}
}

// sparseCopy stores m's scores in a SparseMatrix holding the cells
// keep admits, so the same scores can be read through both
// representations.
func sparseCopy(m *Matrix, keep func(i, j int) bool) *SparseMatrix {
	cands := make([][]int32, m.Rows())
	for i := range cands {
		for j := 0; j < m.Cols(); j++ {
			if keep(i, j) {
				cands[i] = append(cands[i], int32(j))
			}
		}
	}
	sm := NewSparseMatrix(m.Rows(), m.Cols(), cands)
	for i := range cands {
		for _, j := range cands[i] {
			sm.Set(i, int(j), m.At(i, int(j)))
		}
	}
	return sm
}

// TestSelectionRepresentationParity pins selection as a function of the
// scores alone: the same scores stored dense and as a SparseMatrix holding
// every cell select, suggest and bin identically, and a SparseMatrix with
// pruned cells never surfaces one, not even at a threshold <= 0.
func TestSelectionRepresentationParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	quantized := randomMatrix(rng, 9, 7) // coarse scores force score ties
	for i := 0; i < quantized.Rows(); i++ {
		for j := 0; j < quantized.Cols(); j++ {
			quantized.Set(i, j, float64(int(quantized.At(i, j)*4))/4)
		}
	}
	negativeRow := randomMatrix(rng, 5, 6)
	for j := 0; j < negativeRow.Cols(); j++ {
		negativeRow.Set(2, j, -0.5)
	}
	cases := []struct {
		name string
		m    *Matrix
	}{
		{"random", randomMatrix(rng, 12, 15)},
		{"ties", quantized},
		{"negative-row", negativeRow},
		{"zero", NewMatrix(4, 3)},
		{"no-rows", NewMatrix(0, 3)},
		{"no-cols", NewMatrix(3, 0)},
	}
	thresholds := []float64{-1, -0.25, 0, 0.4, 0.74, 1.01}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := sparseCopy(tc.m, func(int, int) bool { return true })
			for _, thr := range thresholds {
				if d, s := SelectThreshold(tc.m, thr), SelectThreshold(full, thr); !reflect.DeepEqual(d, s) {
					t.Errorf("SelectThreshold(%v): dense %v, sparse %v", thr, d, s)
				}
				if d, s := SelectGreedyOneToOne(tc.m, thr), SelectGreedyOneToOne(full, thr); !reflect.DeepEqual(d, s) {
					t.Errorf("SelectGreedyOneToOne(%v): dense %v, sparse %v", thr, d, s)
				}
				if d, s := SelectStableMarriage(tc.m, thr), SelectStableMarriage(full, thr); !reflect.DeepEqual(d, s) {
					t.Errorf("SelectStableMarriage(%v): dense %v, sparse %v", thr, d, s)
				}
			}
			if d, s := SuggestThreshold(tc.m), SuggestThreshold(full); d != s {
				t.Errorf("SuggestThreshold: dense %v, sparse %v", d, s)
			}
			for _, n := range []int{0, 7, 20} {
				if d, s := Histogram(tc.m, n), Histogram(full, n); !reflect.DeepEqual(d, s) {
					t.Errorf("Histogram(%d): dense %v, sparse %v", n, d, s)
				}
			}

			// Prune every third cell: the pruned cells read as 0, which
			// qualifies at a threshold <= 0, yet must never be selected.
			kept := func(i, j int) bool { return (i+j)%3 != 0 }
			pruned := sparseCopy(tc.m, kept)
			for _, thr := range thresholds {
				stored := 0
				for i := 0; i < tc.m.Rows(); i++ {
					for j := 0; j < tc.m.Cols(); j++ {
						if kept(i, j) && tc.m.At(i, j) >= thr {
							stored++
						}
					}
				}
				sel := SelectThreshold(pruned, thr)
				if len(sel) != stored {
					t.Errorf("SelectThreshold(%v) on pruned: %d cells, want the %d stored ones", thr, len(sel), stored)
				}
				for _, c := range sel {
					if pruned.find(c.Src, c.Dst) < 0 {
						t.Errorf("SelectThreshold(%v) returned pruned cell %v", thr, c)
					}
				}
				for _, c := range append(SelectGreedyOneToOne(pruned, thr), SelectStableMarriage(pruned, thr)...) {
					if pruned.find(c.Src, c.Dst) < 0 {
						t.Errorf("one-to-one selection at %v returned pruned cell %v", thr, c)
					}
				}
			}
			total := 0
			for _, n := range Histogram(pruned, 10) {
				total += n
			}
			if total != pruned.Pairs() {
				t.Errorf("pruned histogram total %d, want Pairs %d", total, pruned.Pairs())
			}
		})
	}
}
