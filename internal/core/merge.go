package core

// Merger combines the per-voter votes for element pairs into match
// scores in (-1,+1), one row of pairs at a time.
type Merger interface {
	// Name identifies the merger in reports and ablations.
	Name() string
	// mergeRow merges a row's votes column by column: out[x] becomes the
	// score of column x, from votes[k][x] of every voter k in voter
	// order, where voter k has weight weights[k]. Each votes[k] holds at
	// least len(out) votes. The row's columns are those the voters voted
	// (see Voter), so the merger needs no column IDs.
	mergeRow(votes [][]Vote, weights []float64, out []float64)
}

// EvidenceWeighted is Harmony's merger and the paper's stated novelty: the
// merged score reflects "how confident each match voter is regarding a
// given correspondence". Each vote is weighted by its configured weight,
// by the evidence mass the voter observed (saturated), and by the
// decisiveness of what it observed (|2*ratio-1|, floored so that genuinely
// uncertain voters still temper the consensus slightly). The weighted
// consensus is then sharpened in tanh space — tanh(2*atanh(consensus)) —
// so that a strengthening consensus is "pushed towards -1 or +1" exactly
// as the paper describes for accumulating evidence. Sharpening is a
// monotone transform: it widens the usable score scale across workloads of
// very different evidence richness without altering the ranking.
type EvidenceWeighted struct{}

// decisivenessFloor controls how much a perfectly balanced (ratio 0.5)
// voter still dilutes decisive peers; calibrated on the case-study
// workload (EXPERIMENTS.md, E6).
const decisivenessFloor = 0.8

// sharpenGain is the tanh-space gain of the final sharpening step.
const sharpenGain = 2.0

// Name implements Merger.
func (EvidenceWeighted) Name() string { return "evidence-weighted" }

// mergeRow implements Merger. Each vote's saturation feeds both its
// weight and its score (Vote.Confidence and Vote.Score), so it is
// computed once.
func (EvidenceWeighted) mergeRow(votes [][]Vote, weights []float64, out []float64) {
	for x := range out {
		var num, den float64
		for k, vs := range votes {
			v := vs[x]
			if v.IsAbstention() {
				continue
			}
			sat := Saturate(v.Evidence)
			dec := 2*v.Ratio - 1
			if dec < 0 {
				dec = -dec
			}
			w := weights[k] * sat * (decisivenessFloor + (1-decisivenessFloor)*dec)
			num += w * clampScore((2*v.Ratio-1)*sat)
			den += w
		}
		if den == 0 {
			out[x] = 0
			continue
		}
		consensus := clampScore(num / den)
		// tanh(2*atanh(c)) == 2c/(1+c^2) — the tanh double-angle identity.
		// The closed form replaces two libm calls on the per-pair hot path
		// (sharpenGain is fixed at 2) with two multiplies and a divide.
		out[x] = clampScore(2 * consensus / (1 + consensus*consensus))
	}
}

// RatioOnly is the ablation of EvidenceWeighted: it uses each voter's raw
// evidence ratio (rescaled to (-1,1)) and ignores how much evidence backed
// it. Comparing the two isolates the value of evidence awareness (DESIGN.md
// ablation #1).
type RatioOnly struct{}

// Name implements Merger.
func (RatioOnly) Name() string { return "ratio-only" }

// mergeRow implements Merger.
func (RatioOnly) mergeRow(votes [][]Vote, weights []float64, out []float64) {
	for x := range out {
		var num, den float64
		for k, vs := range votes {
			v := vs[x]
			if v.IsAbstention() {
				continue
			}
			num += weights[k] * (2*v.Ratio - 1)
			den += weights[k]
		}
		if den == 0 {
			out[x] = 0
			continue
		}
		out[x] = clampScore(num / den)
	}
}

// Average is the COMA-style aggregation baseline: the unweighted mean of
// the non-abstaining voters' scores.
type Average struct{}

// Name implements Merger.
func (Average) Name() string { return "average" }

// mergeRow implements Merger.
func (Average) mergeRow(votes [][]Vote, _ []float64, out []float64) {
	for x := range out {
		var sum float64
		n := 0
		for _, vs := range votes {
			v := vs[x]
			if v.IsAbstention() {
				continue
			}
			sum += v.Score()
			n++
		}
		if n == 0 {
			out[x] = 0
			continue
		}
		out[x] = clampScore(sum / float64(n))
	}
}

// Max is the optimistic COMA-style aggregation baseline: the strongest
// single voter wins. It finds matches aggressively at the cost of
// precision.
type Max struct{}

// Name implements Merger.
func (Max) Name() string { return "max" }

// mergeRow implements Merger.
func (Max) mergeRow(votes [][]Vote, _ []float64, out []float64) {
	for x := range out {
		best := 0.0
		seen := false
		for _, vs := range votes {
			v := vs[x]
			if v.IsAbstention() {
				continue
			}
			s := v.Score()
			if !seen || s > best {
				best, seen = s, true
			}
		}
		if !seen {
			out[x] = 0
			continue
		}
		out[x] = clampScore(best)
	}
}

// WeightedLinear weighs voters by configured weight only, using their
// evidence-scaled scores. It sits between EvidenceWeighted and RatioOnly:
// evidence shapes individual scores but not the voters' relative influence.
type WeightedLinear struct{}

// Name implements Merger.
func (WeightedLinear) Name() string { return "weighted-linear" }

// mergeRow implements Merger.
func (WeightedLinear) mergeRow(votes [][]Vote, weights []float64, out []float64) {
	for x := range out {
		var num, den float64
		for k, vs := range votes {
			v := vs[x]
			if v.IsAbstention() {
				continue
			}
			num += weights[k] * v.Score()
			den += weights[k]
		}
		if den == 0 {
			out[x] = 0
			continue
		}
		out[x] = clampScore(num / den)
	}
}
