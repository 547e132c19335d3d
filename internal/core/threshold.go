package core

import "sort"

// SuggestThreshold proposes a confidence-filter operating point for a
// scored matrix. The paper's engineers chose thresholds interactively from
// the score distribution; this automates their heuristic: true
// correspondences concentrate near the top of the per-source best-score
// distribution, so the suggested cut is a fixed fraction of a high
// percentile of positive row maxima. Because vote scores saturate with
// evidence, absolute scales differ across workloads — documentation-rich
// schemata score higher — and this adapts the cut accordingly.
//
// The fraction (0.85) and percentile (90th) were calibrated so that the
// suggestion lands near the hand-tuned operating points of both the
// evidence-rich case study (≈0.74) and small undocumented schemata
// (≈0.4); see EXPERIMENTS.md. It returns 0 when the matrix has no
// positive scores (nothing worth filtering).
func SuggestThreshold(m ScoreMatrix) float64 {
	var maxima []float64
	for i := 0; i < m.Rows(); i++ {
		best := 0.0
		m.ForRow(i, func(_ int, s float64) bool {
			if s > best {
				best = s
			}
			return true
		})
		if best > 0 {
			maxima = append(maxima, best)
		}
	}
	if len(maxima) == 0 {
		return 0
	}
	sort.Float64s(maxima)
	p90 := maxima[len(maxima)*9/10]
	return 0.85 * p90
}

// Histogram buckets the scored cells of m into n equal-width bins over
// [-1, 1] (20 when n <= 0) and returns the counts; the bin totals sum to
// Pairs. It is the score distribution behind the confidence filter: a
// sparse matrix's pruned cells are not counted.
func Histogram(m ScoreMatrix, n int) []int {
	if n <= 0 {
		n = 20
	}
	counts := make([]int, n)
	for i := 0; i < m.Rows(); i++ {
		m.ForRow(i, func(_ int, s float64) bool {
			counts[min(max(int((s+1)/2*float64(n)), 0), n-1)]++
			return true
		})
	}
	return counts
}
