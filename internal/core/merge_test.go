package core

import (
	"math"
	"testing"
	"testing/quick"
)

// mergeOne merges one pair's votes, one per voter, through m as a
// one-column row.
func mergeOne(m Merger, votes []Vote, weights []float64) float64 {
	rows := make([][]Vote, len(votes))
	for k, v := range votes {
		rows[k] = []Vote{v}
	}
	var out [1]float64
	m.mergeRow(rows, weights, out[:])
	return out[0]
}

func TestEvidenceWeightedFavorsConfidentVoters(t *testing.T) {
	m := EvidenceWeighted{}
	// One voter saw lots of supporting evidence; another saw a single
	// contradicting token. The confident voter must dominate.
	votes := []Vote{{Ratio: 0.95, Evidence: 10}, {Ratio: 0.1, Evidence: 0.5}}
	weights := []float64{1, 1}
	if s := mergeOne(m, votes, weights); s <= 0.3 {
		t.Errorf("merged score = %f, want clearly positive", s)
	}
	// RatioOnly, in contrast, treats both votes alike and lands much lower.
	r := mergeOne(RatioOnly{}, votes, weights)
	h := mergeOne(m, votes, weights)
	if !(h > r) {
		t.Errorf("evidence weighting should beat ratio-only here: %f vs %f", h, r)
	}
}

func TestMergersIgnoreAbstentions(t *testing.T) {
	votes := []Vote{Abstain, {Ratio: 0.9, Evidence: 5}, Abstain}
	weights := []float64{1, 1, 1}
	for _, mg := range []Merger{EvidenceWeighted{}, RatioOnly{}, Average{}, Max{}, WeightedLinear{}} {
		all := mergeOne(mg, votes, weights)
		only := mergeOne(mg, votes[1:2], weights[1:2])
		if math.Abs(all-only) > 1e-12 {
			t.Errorf("%s: abstentions changed the score: %f vs %f", mg.Name(), all, only)
		}
	}
}

func TestMergersAllAbstainYieldZero(t *testing.T) {
	votes := []Vote{Abstain, Abstain}
	weights := []float64{1, 1}
	for _, mg := range []Merger{EvidenceWeighted{}, RatioOnly{}, Average{}, Max{}, WeightedLinear{}} {
		if s := mergeOne(mg, votes, weights); s != 0 {
			t.Errorf("%s: all-abstain score = %f, want 0", mg.Name(), s)
		}
	}
}

func TestMaxMergerPicksStrongest(t *testing.T) {
	votes := []Vote{{Ratio: 0.2, Evidence: 5}, {Ratio: 0.9, Evidence: 5}, {Ratio: 0.6, Evidence: 5}}
	weights := []float64{1, 1, 1}
	got := mergeOne(Max{}, votes, weights)
	want := votes[1].Score()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Max = %f, want %f", got, want)
	}
	// Max with only negative votes returns the least negative.
	neg := []Vote{{Ratio: 0.1, Evidence: 5}, {Ratio: 0.3, Evidence: 5}}
	got = mergeOne(Max{}, neg, weights[:2])
	if math.Abs(got-neg[1].Score()) > 1e-12 {
		t.Errorf("Max over negatives = %f, want %f", got, neg[1].Score())
	}
}

func TestMergeScoresStayInOpenInterval(t *testing.T) {
	mergers := []Merger{EvidenceWeighted{}, RatioOnly{}, Average{}, Max{}, WeightedLinear{}}
	prop := func(r1, r2, r3, e1, e2, e3 float64) bool {
		votes := []Vote{
			{Ratio: math.Abs(math.Mod(r1, 1)), Evidence: math.Abs(math.Mod(e1, 20))},
			{Ratio: math.Abs(math.Mod(r2, 1)), Evidence: math.Abs(math.Mod(e2, 20))},
			{Ratio: math.Abs(math.Mod(r3, 1)), Evidence: math.Abs(math.Mod(e3, 20))},
		}
		weights := []float64{1, 0.5, 2}
		for _, mg := range mergers {
			s := mergeOne(mg, votes, weights)
			if !(s > -1 && s < 1) || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightedLinearRespectsWeights(t *testing.T) {
	votes := []Vote{{Ratio: 1, Evidence: 10}, {Ratio: 0, Evidence: 10}}
	heavyPos := mergeOne(WeightedLinear{}, votes, []float64{10, 1})
	heavyNeg := mergeOne(WeightedLinear{}, votes, []float64{1, 10})
	if !(heavyPos > 0 && heavyNeg < 0) {
		t.Errorf("weights ignored: %f, %f", heavyPos, heavyNeg)
	}
}

func TestMergerNames(t *testing.T) {
	names := map[string]bool{}
	for _, mg := range []Merger{EvidenceWeighted{}, RatioOnly{}, Average{}, Max{}, WeightedLinear{}} {
		if mg.Name() == "" {
			t.Error("empty merger name")
		}
		if names[mg.Name()] {
			t.Errorf("duplicate merger name %q", mg.Name())
		}
		names[mg.Name()] = true
	}
}

// TestMergeRowColumnsIndependent merges one row whose columns differ in
// which voters abstain (none, some, all) and checks every column against
// the same votes merged as a one-column row and against the frozen
// per-pair merger, bit for bit: a column's abstentions must not leak
// into its neighbours.
func TestMergeRowColumnsIndependent(t *testing.T) {
	weak, strong, against := Vote{Ratio: 0.6, Evidence: 0.5}, Vote{Ratio: 0.9, Evidence: 6}, Vote{Ratio: 0.1, Evidence: 3}
	votes := [][]Vote{
		{strong, Abstain, Abstain, against, weak},
		{against, Abstain, strong, Abstain, weak},
		{weak, Abstain, Abstain, Abstain, Abstain},
	}
	weights := []float64{1, 0.6, 0.3}
	for _, mg := range []Merger{EvidenceWeighted{}, RatioOnly{}, Average{}, Max{}, WeightedLinear{}} {
		out := make([]float64, len(votes[0]))
		mg.mergeRow(votes, weights, out)
		for x := range out {
			col := []Vote{votes[0][x], votes[1][x], votes[2][x]}
			if one := mergeOne(mg, col, weights); math.Float64bits(out[x]) != math.Float64bits(one) {
				t.Errorf("%s: column %d = %v, one-column row %v", mg.Name(), x, out[x], one)
			}
			if ref := refMerge(mg, col, weights); math.Float64bits(out[x]) != math.Float64bits(ref) {
				t.Errorf("%s: column %d = %v, frozen merge %v", mg.Name(), x, out[x], ref)
			}
		}
		if out[1] != 0 {
			t.Errorf("%s: an all-abstain column scored %v, want 0", mg.Name(), out[1])
		}
	}
}
