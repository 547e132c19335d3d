package core

import (
	"sort"
	"time"
)

// Selection policies turn a scored match matrix into a set of asserted
// correspondences. The paper's engineers used simple thresholding with
// human review; code-generation pipelines typically want one-to-one
// selections, provided here as greedy matching and Gale-Shapley stable
// marriage for the ablation in DESIGN.md (#4).

// SelectThreshold returns every scored correspondence at or above
// threshold, ordered by descending score (ties broken by source then
// target ID), or nil when none qualifies. Elements may participate in
// several correspondences (m:n semantics). A sparse matrix never yields a
// pruned cell, even at a threshold <= 0.
func SelectThreshold(m ScoreMatrix, threshold float64) []Correspondence {
	var out []Correspondence
	for i := 0; i < m.Rows(); i++ {
		m.ForRow(i, func(j int, s float64) bool {
			if s >= threshold {
				out = append(out, Correspondence{Src: i, Dst: j, Score: s})
			}
			return true
		})
	}
	sortCorrespondences(out)
	return out
}

// SelectGreedyOneToOne returns a one-to-one matching built greedily from
// the highest-scoring pairs at or above threshold. Each source and each
// target element appears at most once. This is the classic stable-greedy
// heuristic: the result is also a stable matching when scores are distinct.
func SelectGreedyOneToOne(m ScoreMatrix, threshold float64) []Correspondence {
	defer func(t0 time.Time) { phaseSelect.Observe(time.Since(t0).Seconds()) }(time.Now())
	cands := SelectThreshold(m, threshold)
	usedSrc := make(map[int]bool)
	usedDst := make(map[int]bool)
	out := make([]Correspondence, 0, len(cands))
	for _, c := range cands {
		if usedSrc[c.Src] || usedDst[c.Dst] {
			continue
		}
		usedSrc[c.Src] = true
		usedDst[c.Dst] = true
		out = append(out, c)
	}
	return out
}

// SelectStableMarriage returns a one-to-one matching computed with
// Gale-Shapley over the pairs scoring at least threshold. Sources propose
// in descending score order; targets accept their best proposal so far.
// The result is stable: no unmatched (source, target) pair both prefer each
// other to their assigned partners.
func SelectStableMarriage(m ScoreMatrix, threshold float64) []Correspondence {
	rows, cols := m.Rows(), m.Cols()
	// Build per-source preference lists over eligible targets, capturing
	// scores during the row walk so the sort never re-reads the matrix.
	type pref struct {
		dst   int
		score float64
	}
	prefs := make([][]int, rows)
	for i := 0; i < rows; i++ {
		var elig []pref
		m.ForRow(i, func(j int, s float64) bool {
			if s >= threshold {
				elig = append(elig, pref{dst: j, score: s})
			}
			return true
		})
		sort.Slice(elig, func(a, b int) bool {
			if elig[a].score != elig[b].score {
				return elig[a].score > elig[b].score
			}
			return elig[a].dst < elig[b].dst
		})
		if len(elig) > 0 {
			order := make([]int, len(elig))
			for k, p := range elig {
				order[k] = p.dst
			}
			prefs[i] = order
		}
	}
	nextProposal := make([]int, rows) // index into prefs[i]
	engagedTo := make([]int, cols)    // target -> source, -1 if free
	for j := range engagedTo {
		engagedTo[j] = -1
	}
	free := make([]int, 0, rows)
	for i := 0; i < rows; i++ {
		if len(prefs[i]) > 0 {
			free = append(free, i)
		}
	}
	for len(free) > 0 {
		i := free[len(free)-1]
		free = free[:len(free)-1]
		if nextProposal[i] >= len(prefs[i]) {
			continue // exhausted preferences; stays unmatched
		}
		j := prefs[i][nextProposal[i]]
		nextProposal[i]++
		cur := engagedTo[j]
		switch {
		case cur == -1:
			engagedTo[j] = i
		case better(m, i, cur, j):
			engagedTo[j] = i
			if nextProposal[cur] < len(prefs[cur]) {
				free = append(free, cur)
			}
		default:
			if nextProposal[i] < len(prefs[i]) {
				free = append(free, i)
			}
		}
	}
	var out []Correspondence
	for j, i := range engagedTo {
		if i >= 0 {
			out = append(out, Correspondence{Src: i, Dst: j, Score: m.At(i, j)})
		}
	}
	sortCorrespondences(out)
	return out
}

// better reports whether target j strictly prefers source a over source b.
func better(m ScoreMatrix, a, b, j int) bool {
	sa, sb := m.At(a, j), m.At(b, j)
	if sa != sb {
		return sa > sb
	}
	return a < b
}

// IsStableMatching verifies the stability property of a one-to-one matching
// over pairs at or above threshold: there is no (source, target) pair that
// both strictly prefer each other to their assigned partners. Exposed for
// property-based tests.
func IsStableMatching(m ScoreMatrix, matching []Correspondence, threshold float64) bool {
	srcPartner := make(map[int]float64)
	dstPartner := make(map[int]float64)
	for _, c := range matching {
		srcPartner[c.Src] = c.Score
		dstPartner[c.Dst] = c.Score
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			s := m.At(i, j)
			if s < threshold {
				continue
			}
			si, iMatched := srcPartner[i]
			sj, jMatched := dstPartner[j]
			iPrefers := !iMatched || s > si
			jPrefers := !jMatched || s > sj
			if iPrefers && jPrefers && !(iMatched && jMatched && si == s && sj == s) {
				// (i,j) is a blocking pair unless it is itself in the matching
				inMatching := false
				for _, c := range matching {
					if c.Src == i && c.Dst == j {
						inMatching = true
						break
					}
				}
				if !inMatching {
					return false
				}
			}
		}
	}
	return true
}
