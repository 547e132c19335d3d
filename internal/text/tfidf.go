package text

import (
	"math"
	"sort"
)

// Corpus is a TF-IDF model over a set of documents (typically the
// documentation strings of every element in one or both schemata being
// matched). Build it with NewCorpus, then obtain sparse vectors with
// Vector and compare them with Cosine.
//
// The zero value is unusable; documents must be supplied at construction
// time because IDF weights depend on the whole collection.
type Corpus struct {
	docFreq map[string]int // token -> number of documents containing it
	numDocs int
}

// NewCorpus builds a TF-IDF corpus from pre-normalized token slices, one
// per document. Empty documents are counted (they influence N) but
// contribute no term statistics.
func NewCorpus(docs [][]string) *Corpus {
	c := &Corpus{docFreq: make(map[string]int), numDocs: len(docs)}
	for _, doc := range docs {
		seen := make(map[string]bool, len(doc))
		for _, tok := range doc {
			if !seen[tok] {
				seen[tok] = true
				c.docFreq[tok]++
			}
		}
	}
	return c
}

// NumDocs returns the number of documents the corpus was built from.
func (c *Corpus) NumDocs() int { return c.numDocs }

// VocabularySize returns the number of distinct tokens in the corpus.
func (c *Corpus) VocabularySize() int { return len(c.docFreq) }

// IDF returns the smoothed inverse document frequency of a token:
// ln(1 + N/(1+df)). Unknown tokens receive the maximum weight.
func (c *Corpus) IDF(tok string) float64 {
	df := c.docFreq[tok]
	return math.Log(1 + float64(c.numDocs)/float64(1+df))
}

// Vector is a sparse TF-IDF vector with unit L2 norm (unless empty).
// Entries are sorted by term for linear-time dot products. Vectors
// built from a compiled profile additionally carry pair-local integer
// term ids (assigned in ascending term order) so Cosine can merge by
// integer comparison instead of string comparison.
type Vector struct {
	terms   []string
	ids     []int32
	weights []float64
}

// MakeVector assembles a Vector from precomputed parallel slices. terms
// must be in ascending order and weights already unit-normalized; ids,
// when non-nil, must be monotonically increasing and consistent with
// the term order (compiled profiles guarantee this by assigning joint
// ids in sorted-term order). The slices are retained, not copied.
func MakeVector(terms []string, ids []int32, weights []float64) Vector {
	return Vector{terms: terms, ids: ids, weights: weights}
}

// Len returns the number of non-zero entries.
func (v Vector) Len() int { return len(v.terms) }

// IsZero reports whether the vector has no entries.
func (v Vector) IsZero() bool { return len(v.terms) == 0 }

// Vector converts a normalized token slice into a unit-length TF-IDF
// vector using this corpus's IDF weights. Term frequency is sublinear
// (1 + ln tf), the standard damping for short technical prose.
func (c *Corpus) Vector(tokens []string) Vector {
	if len(tokens) == 0 {
		return Vector{}
	}
	tf := make(map[string]int, len(tokens))
	for _, tok := range tokens {
		tf[tok]++
	}
	terms := make([]string, 0, len(tf))
	for t := range tf {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	weights := make([]float64, len(terms))
	var norm float64
	for i, t := range terms {
		w := (1 + math.Log(float64(tf[t]))) * c.IDF(t)
		weights[i] = w
		norm += w * w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range weights {
			weights[i] /= norm
		}
	}
	return Vector{terms: terms, weights: weights}
}

// ForEach calls f for every non-zero entry of the vector in ascending term
// order, with the entry's pair-local term id (-1 in a vector built without
// ids, such as Corpus.Vector's). Sparse candidate generation uses it to
// pick a document's top terms by weight and key them by id.
func (v Vector) ForEach(f func(term string, id int32, weight float64)) {
	for i, t := range v.terms {
		id := int32(-1)
		if v.ids != nil {
			id = v.ids[i]
		}
		f(t, id, v.weights[i])
	}
}

// Cosine returns the cosine similarity of two vectors produced by the same
// corpus. Both vectors are unit length, so this is simply their dot
// product; the result lies in [0,1]. Either vector being empty yields 0.
func Cosine(a, b Vector) float64 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	if a.ids != nil && b.ids != nil {
		// Integer-id merge: ids are assigned in ascending term order from a
		// shared pair vocabulary, so this walk visits entries — and
		// accumulates the dot product — in exactly the same order as the
		// string merge below, keeping results bit-identical.
		var dot float64
		i, j := 0, 0
		for i < len(a.ids) && j < len(b.ids) {
			ai, bj := a.ids[i], b.ids[j]
			switch {
			case ai == bj:
				dot += a.weights[i] * b.weights[j]
				i++
				j++
			case ai < bj:
				i++
			default:
				j++
			}
		}
		if dot > 1 {
			dot = 1
		}
		return dot
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.terms) && j < len(b.terms) {
		switch {
		case a.terms[i] == b.terms[j]:
			dot += a.weights[i] * b.weights[j]
			i++
			j++
		case a.terms[i] < b.terms[j]:
			i++
		default:
			j++
		}
	}
	if dot > 1 {
		dot = 1 // guard against floating-point drift
	}
	return dot
}
