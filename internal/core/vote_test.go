package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVoteScoreBounds(t *testing.T) {
	prop := func(ratio, evidence float64) bool {
		r := math.Abs(math.Mod(ratio, 1))
		e := math.Abs(evidence)
		s := Vote{Ratio: r, Evidence: e}.Score()
		return s > -1 && s < 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestVoteScoreDirection(t *testing.T) {
	pos := Vote{Ratio: 0.9, Evidence: 4}
	neg := Vote{Ratio: 0.1, Evidence: 4}
	mid := Vote{Ratio: 0.5, Evidence: 100}
	if pos.Score() <= 0 {
		t.Errorf("supportive vote score = %f, want > 0", pos.Score())
	}
	if neg.Score() >= 0 {
		t.Errorf("contradicting vote score = %f, want < 0", neg.Score())
	}
	if mid.Score() != 0 {
		t.Errorf("balanced vote score = %f, want 0", mid.Score())
	}
}

func TestMoreEvidencePushesTowardExtremes(t *testing.T) {
	// The paper: "As a match voter observes more evidence, the confidence
	// score is pushed towards -1 or +1."
	weak := Vote{Ratio: 0.9, Evidence: 1}
	strong := Vote{Ratio: 0.9, Evidence: 10}
	if !(strong.Score() > weak.Score()) {
		t.Errorf("more evidence should increase positive score: %f vs %f", strong.Score(), weak.Score())
	}
	weakNeg := Vote{Ratio: 0.1, Evidence: 1}
	strongNeg := Vote{Ratio: 0.1, Evidence: 10}
	if !(strongNeg.Score() < weakNeg.Score()) {
		t.Errorf("more evidence should decrease negative score: %f vs %f", strongNeg.Score(), weakNeg.Score())
	}
}

func TestAbstain(t *testing.T) {
	if !Abstain.IsAbstention() {
		t.Error("Abstain should be an abstention")
	}
	if Abstain.Score() != 0 {
		t.Errorf("Abstain score = %f, want 0", Abstain.Score())
	}
	if Abstain.Confidence() != 0 {
		t.Errorf("Abstain confidence = %f, want 0", Abstain.Confidence())
	}
}

func TestSaturateMonotone(t *testing.T) {
	prev := -1.0
	for e := 0.0; e < 50; e += 0.5 {
		s := Saturate(e)
		if s < 0 || s >= 1 {
			t.Fatalf("Saturate(%f) = %f out of [0,1)", e, s)
		}
		if s < prev {
			t.Fatalf("Saturate not monotone at %f", e)
		}
		prev = s
	}
	if Saturate(-1) != 0 {
		t.Error("negative evidence should saturate to 0")
	}
}

func TestClampScore(t *testing.T) {
	if s := clampScore(1.5); s >= 1 {
		t.Errorf("clampScore(1.5) = %f", s)
	}
	if s := clampScore(-1.5); s <= -1 {
		t.Errorf("clampScore(-1.5) = %f", s)
	}
	if s := clampScore(math.NaN()); s != 0 {
		t.Errorf("clampScore(NaN) = %f, want 0", s)
	}
	if s := clampScore(0.5); s != 0.5 {
		t.Errorf("clampScore(0.5) = %f", s)
	}
}

// TestClampScoreBounds pins clampScore's constant bounds to the
// neighbours of ±1 toward 0, and its NaN, ±Inf and ±1 cases.
func TestClampScoreBounds(t *testing.T) {
	hi, lo := math.Nextafter(1, 0), math.Nextafter(-1, 0)
	if maxScore != hi || -maxScore != lo {
		t.Fatalf("maxScore = %v, want %v and %v", maxScore, hi, lo)
	}
	for _, c := range []struct{ in, want float64 }{
		{math.NaN(), 0},
		{math.Inf(1), hi},
		{math.Inf(-1), lo},
		{1, hi},
		{-1, lo},
		{hi, hi},
		{lo, lo},
		{math.Copysign(0, -1), math.Copysign(0, -1)},
	} {
		if got := clampScore(c.in); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("clampScore(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
