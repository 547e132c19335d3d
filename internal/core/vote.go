// Package core implements the Harmony match engine, the primary
// contribution of Smith et al. (CIDR 2009, §3.2): a schema matcher that
// combines multiple match voters through an evidence-aware vote merger and
// exposes the link and node filters (confidence, depth, sub-tree) that the
// paper's integration engineers relied on.
//
// The engine follows the conventional architecture the paper describes:
// linguistic preprocessing of element names and documentation, several
// independent match voters each scoring every [source element, target
// element] pair, and a vote merger that combines per-voter confidences into
// a single match score per pair. Harmony's distinctive feature — considering
// both the evidence ratio and the total amount of available evidence — is
// captured by the Vote type below and the EvidenceWeighted merger.
package core

// Vote is one voter's opinion about one [source, target] element pair.
//
// Ratio is the fraction of observed evidence that supports the
// correspondence, in [0,1]: 1 means all evidence agrees the elements
// correspond, 0 means all evidence disagrees, 0.5 means the evidence is
// balanced. Evidence is the total amount of evidence the voter observed
// (for example, the number of distinct tokens compared); zero evidence
// means the voter abstains.
//
// The derived confidence score (Score) lies in the open interval (-1,+1)
// exactly as the paper specifies: -1 definitely no correspondence, +1
// definite correspondence, 0 complete uncertainty. More evidence pushes the
// score away from 0 toward ±1.
type Vote struct {
	Ratio    float64
	Evidence float64
}

// Abstain is the zero-evidence vote; its Score is 0 (complete uncertainty).
var Abstain = Vote{Ratio: 0.5, Evidence: 0}

// evidenceSaturation controls how quickly confidence saturates with
// evidence: with k observations of evidence, confidence reaches k/(k+c).
// c=2 means 2 tokens of evidence yield 50% of full confidence, 8 tokens
// yield 80%.
const evidenceSaturation = 2.0

// Saturate maps a non-negative evidence mass to a confidence multiplier in
// [0,1) using the saturating function e/(e+c).
func Saturate(evidence float64) float64 {
	if evidence <= 0 {
		return 0
	}
	return evidence / (evidence + evidenceSaturation)
}

// Score converts the vote to a confidence score in (-1,+1). The evidence
// ratio sets the direction (2*Ratio-1) and the total evidence scales the
// magnitude, implementing the paper's "pushed towards -1 or +1 as more
// evidence is observed". The result is clamped to the open interval even
// at floating-point extremes.
func (v Vote) Score() float64 {
	return clampScore((2*v.Ratio - 1) * Saturate(v.Evidence))
}

// Confidence returns the vote's evidence-derived confidence in [0,1),
// independent of direction.
func (v Vote) Confidence() float64 { return Saturate(v.Evidence) }

// IsAbstention reports whether the vote carries no evidence.
func (v Vote) IsAbstention() bool { return v.Evidence <= 0 }

// clampScore keeps merged scores inside the open interval (-1,1), guarding
// against floating-point drift in mergers. It runs several times per
// scored pair, so it is kept small enough to inline: the bounds are
// constants and NaN is the one value unequal to itself.
func clampScore(s float64) float64 {
	if s != s {
		return 0
	}
	if s >= 1 {
		return maxScore
	}
	if s <= -1 {
		return -maxScore
	}
	return s
}

// maxScore is the largest float64 below 1, math.Nextafter(1, 0); its
// negation is math.Nextafter(-1, 0).
const maxScore = 1 - 0x1p-53
