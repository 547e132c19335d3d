// Package partition computes the knowledge products the paper says
// decision makers actually consume (Lessons #3 and #4): the partition of a
// binary match into {S1-S2}, {S2-S1} and {S1∩S2}, and its N-way
// generalization — the comprehensive vocabulary, in which N schemata induce
// 2^N-1 Venn cells, "each of which supplies a potentially valuable piece of
// knowledge to information system decision makers".
package partition

import (
	"fmt"

	"harmony/internal/core"
	"harmony/internal/schema"
)

// MatchedPair is one asserted correspondence between elements of the two
// schemata of a binary partition.
type MatchedPair struct {
	A, B  *schema.Element
	Score float64
}

// Binary is the three-way partition of a binary match: the elements only
// in A, the elements only in B, and the matched pairs. In the paper's case
// study the cardinalities of A∩B and B-A "were vital to the customer's
// decision process": eliminating Sys(SB) was unattractive because 66% of SB
// (517 elements) had no SA correspondent.
type Binary struct {
	A, B    *schema.Schema
	OnlyA   []*schema.Element
	OnlyB   []*schema.Element
	Matched []MatchedPair
}

// FromResult partitions a match result at the given confidence threshold.
// With oneToOne true, correspondences are first reduced to a one-to-one
// matching (greedy by score); otherwise any element participating in any
// above-threshold correspondence counts as matched.
func FromResult(res *core.Result, threshold float64, oneToOne bool) *Binary {
	b := &Binary{A: res.Src.Schema, B: res.Dst.Schema}
	var cands []core.Correspondence
	if oneToOne {
		cands = core.SelectGreedyOneToOne(res.Matrix, threshold)
	} else {
		cands = core.SelectThreshold(res.Matrix, threshold)
	}
	matchedA := make(map[int]bool)
	matchedB := make(map[int]bool)
	for _, c := range cands {
		b.Matched = append(b.Matched, MatchedPair{
			A:     res.Src.View(c.Src).El,
			B:     res.Dst.View(c.Dst).El,
			Score: c.Score,
		})
		matchedA[c.Src] = true
		matchedB[c.Dst] = true
	}
	for _, e := range b.A.Elements() {
		if !matchedA[e.ID] {
			b.OnlyA = append(b.OnlyA, e)
		}
	}
	for _, e := range b.B.Elements() {
		if !matchedB[e.ID] {
			b.OnlyB = append(b.OnlyB, e)
		}
	}
	return b
}

// Stats are the headline numbers of a binary partition.
type Stats struct {
	SizeA, SizeB       int
	MatchedA, MatchedB int
	OnlyA, OnlyB       int
	Pairs              int
	FractionAMatched   float64
	FractionBMatched   float64
}

// Stats computes the partition's cardinalities and fractions.
func (b *Binary) Stats() Stats {
	st := Stats{
		SizeA: b.A.Len(), SizeB: b.B.Len(),
		OnlyA: len(b.OnlyA), OnlyB: len(b.OnlyB),
		Pairs: len(b.Matched),
	}
	st.MatchedA = st.SizeA - st.OnlyA
	st.MatchedB = st.SizeB - st.OnlyB
	if st.SizeA > 0 {
		st.FractionAMatched = float64(st.MatchedA) / float64(st.SizeA)
	}
	if st.SizeB > 0 {
		st.FractionBMatched = float64(st.MatchedB) / float64(st.SizeB)
	}
	return st
}

// String renders the stats in the form the paper reports: "only 34% of SB
// matched SA and 66% of SB (or 517 elements) did not".
func (s Stats) String() string {
	return fmt.Sprintf(
		"%d pairs; A: %d/%d matched (%.0f%%), %d distinct; B: %d/%d matched (%.0f%%), %d distinct",
		s.Pairs,
		s.MatchedA, s.SizeA, s.FractionAMatched*100, s.OnlyA,
		s.MatchedB, s.SizeB, s.FractionBMatched*100, s.OnlyB,
	)
}

// OverlapCoefficient returns |matched elements of the smaller schema| /
// |smaller schema|, a quick numeric characterization of overlap usable as
// an inter-schema similarity (the paper's "schema clustering and overlap
// analysis" direction; package cluster builds on it).
func (b *Binary) OverlapCoefficient() float64 {
	st := b.Stats()
	if st.SizeA == 0 || st.SizeB == 0 {
		return 0
	}
	if st.SizeA <= st.SizeB {
		return float64(st.MatchedA) / float64(st.SizeA)
	}
	return float64(st.MatchedB) / float64(st.SizeB)
}
