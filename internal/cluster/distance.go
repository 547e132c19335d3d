// Package cluster implements schema clustering and overlap analysis, a
// research direction the paper calls vital: "Numeric characterizations of
// overlap could also be used as inter-schema distance metrics by a
// clustering algorithm. The ability to identify clusters of related
// schemata is vital, providing CIOs with a big picture view of enterprise
// data sources and revealing to integration planners the most promising
// (i.e., tightly clustered) candidates for integration."
//
// Two distance constructions are provided: Distances runs the full match
// engine over every schema pair (accurate, expensive), while QuickDistances
// compares whole-schema token profiles (the "approximate but quick"
// characterization the paper asks for). Both feed the agglomerative
// (Agglomerative) and k-medoids (KMedoids) algorithms.
package cluster

import (
	"context"
	"fmt"

	"harmony/internal/core"
	"harmony/internal/partition"
	"harmony/internal/schema"
	"harmony/internal/search"
	"harmony/internal/text"
)

// DistanceMatrix is a symmetric matrix of pairwise distances in [0,1],
// zero on the diagonal.
type DistanceMatrix struct {
	n int
	d []float64
}

// NewDistanceMatrix returns an n×n zero matrix.
func NewDistanceMatrix(n int) *DistanceMatrix {
	return &DistanceMatrix{n: n, d: make([]float64, n*n)}
}

// Len returns the number of items.
func (m *DistanceMatrix) Len() int { return m.n }

// At returns the distance between items i and j.
func (m *DistanceMatrix) At(i, j int) float64 { return m.d[i*m.n+j] }

// Set stores the distance symmetrically.
func (m *DistanceMatrix) Set(i, j int, v float64) {
	m.d[i*m.n+j] = v
	m.d[j*m.n+i] = v
}

// Validate checks symmetry, zero diagonal and the [0,1] range.
func (m *DistanceMatrix) Validate() error {
	for i := 0; i < m.n; i++ {
		if m.At(i, i) != 0 {
			return fmt.Errorf("cluster: nonzero diagonal at %d", i)
		}
		for j := 0; j < m.n; j++ {
			v := m.At(i, j)
			if v < 0 || v > 1 {
				return fmt.Errorf("cluster: distance (%d,%d)=%f out of range", i, j, v)
			}
			if v != m.At(j, i) {
				return fmt.Errorf("cluster: asymmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// Distances builds the inter-schema distance matrix by running the match
// engine over every schema pair and converting match overlap to distance:
// d = 1 - overlap coefficient of the binary partition at the threshold.
// Cost is N(N-1)/2 full matches, with ctx checked between them; for
// repository-scale N prefer QuickDistances to preselect and reserve this
// for the short list.
func Distances(ctx context.Context, eng *core.Engine, schemas []*schema.Schema, threshold float64) (*DistanceMatrix, error) {
	m := NewDistanceMatrix(len(schemas))
	for i := 0; i < len(schemas); i++ {
		for j := i + 1; j < len(schemas); j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res := eng.Match(schemas[i], schemas[j])
			ov := partition.FromResult(res, threshold, true).OverlapCoefficient()
			res.Release()
			m.Set(i, j, 1-ov)
		}
	}
	return m, nil
}

// QuickDistances characterizes overlap "approximately but quickly": each
// schema is reduced to the TF-IDF vector of all its normalized element-name
// and documentation tokens, and distance is 1 - cosine. It needs one pass
// over each schema and no pairwise matching, making it usable over
// thousands of registry schemata.
func QuickDistances(schemas []*schema.Schema) *DistanceMatrix {
	docs := make([][]string, len(schemas))
	for i, s := range schemas {
		docs[i] = search.SchemaProfile(s)
	}
	corpus := text.NewCorpus(docs)
	vecs := make([]text.Vector, len(schemas))
	for i, d := range docs {
		vecs[i] = corpus.Vector(d)
	}
	m := NewDistanceMatrix(len(schemas))
	for i := range schemas {
		for j := i + 1; j < len(schemas); j++ {
			m.Set(i, j, 1-text.Cosine(vecs[i], vecs[j]))
		}
	}
	return m
}
