package core

import (
	"fmt"
	"math"
	"testing"
)

// FuzzScoreRows differentially checks row scoring against the frozen
// per-cell scorer (refScoreCell in kernel_ref_test.go): two schemata of
// up to 96 elements from the FuzzSparseCandidates generator, so a
// container can hold more children than the alignment cap of 64, scored
// under every preset without propagation, at 1 and 3 workers, dense,
// sparse (a budget of 1 to 8 and a cutoff of 1, so the sparse rows carry
// recorded alignment totals) and as a cross match; every scored cell
// must equal the reference bit for bit, and so must every vote Explain
// reports. The seed corpus lives under
// testdata/fuzz/FuzzScoreRows. Run it with
//
//	go test -run '^$' -fuzz FuzzScoreRows -fuzztime=10s ./internal/core
func FuzzScoreRows(f *testing.F) {
	presets := Presets()
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		budget := 1 + in.next()%8
		a, b := in.fuzzSchema("A", 96), in.fuzzSchema("B", 96)
		sv, dv := pairViews(a, b)
		srcEls, dstEls := a.Elements(), b.Elements()[b.Len()/2:]
		for _, name := range presetNames() {
			base := presets[name]().WithOptions(WithPropagation(0, 0))
			want := NewMatrix(sv.Len(), dv.Len())
			for i := 0; i < sv.Len(); i++ {
				for j := 0; j < dv.Len(); j++ {
					want.Set(i, j, refScoreCell(base, sv, dv, i, j))
				}
			}
			for i := 0; i < sv.Len(); i++ {
				for j := 0; j < dv.Len(); j++ {
					votes, _ := refVoteAll(base, sv, dv, i, j)
					for k, r := range base.Explain(sv, dv, i, j) {
						if math.Float64bits(r.Vote.Ratio) != math.Float64bits(votes[k].Ratio) ||
							math.Float64bits(r.Vote.Evidence) != math.Float64bits(votes[k].Evidence) {
							t.Fatalf("%s: Explain (%d,%d) voter %s = %+v, reference %+v", name, i, j, r.Voter, r.Vote, votes[k])
						}
					}
				}
			}
			for _, workers := range []int{1, 3} {
				eng := base.WithOptions(WithWorkers(workers))
				label := fmt.Sprintf("%s, budget %d, %d workers", name, budget, workers)
				dense := eng.MatchViews(sv, dv).Matrix
				if dense.Pairs() != sv.Len()*dv.Len() {
					t.Fatalf("%s: dense match stored %d cells", label, dense.Pairs())
				}
				checkScoredCells(t, label+", dense", dense, want)
				sparse := eng.WithOptions(WithSparse(budget), WithSparseCutoff(1)).MatchViews(sv, dv).Matrix
				checkScoredCells(t, label+", sparse", sparse, want)
				checkScoredCells(t, label+", cross", eng.MatchCross(sv, dv, srcEls, dstEls).Matrix, want)
			}
		}
	})
}

// checkScoredCells compares every stored cell of got with want, bit for
// bit.
func checkScoredCells(t *testing.T, label string, got ScoreMatrix, want *Matrix) {
	t.Helper()
	for i := 0; i < got.Rows(); i++ {
		got.ForRow(i, func(j int, s float64) bool {
			if w := want.At(i, j); math.Float64bits(s) != math.Float64bits(w) {
				t.Fatalf("%s: cell (%d,%d) = %v, reference %v", label, i, j, s, w)
			}
			return true
		})
	}
}
