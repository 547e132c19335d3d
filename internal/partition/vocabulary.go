package partition

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"harmony/internal/core"
	"harmony/internal/schema"
)

// Term is one entry of a comprehensive vocabulary: a concept realized by
// one or more elements across the schema set. Terms are the connected
// components of the cross-schema correspondence graph; an element that
// matches nothing is a singleton term unique to its schema.
type Term struct {
	// Label is a representative name for the term (the lexically smallest
	// member element name, which is deterministic).
	Label string
	// Members maps schema index to the member elements from that schema.
	Members map[int][]*schema.Element
	// Mask is the bit set of schema indices with at least one member.
	Mask uint32
}

// Schemas returns the number of schemata the term appears in.
func (t *Term) Schemas() int {
	n := 0
	for m := t.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Size returns the total number of member elements.
func (t *Term) Size() int {
	n := 0
	for _, els := range t.Members {
		n += len(els)
	}
	return n
}

// Vocabulary is the comprehensive vocabulary of a schema set: "an
// exhaustive list of the concepts found in a set of data sources, and, for
// each concept, the sources using that concept in their data model". It
// partitions terms into the 2^N-1 Venn cells by schema membership; "for
// any non-empty subset of {SA, SC, SD, SE, SF}, the customer wanted to
// know the terms those schemata (and no others in that group) held in
// common".
type Vocabulary struct {
	Schemas []*schema.Schema
	Terms   []*Term
	cells   map[uint32][]*Term
}

// Correspondences identifies element correspondences between one ordered
// pair of schemata of the set, by schema indices into the Vocabulary's
// schema list.
type Correspondences struct {
	I, J  int // schema indices, I < J
	Pairs []core.Correspondence
}

// Build constructs the comprehensive vocabulary from pairwise match
// selections. Every element of every schema becomes part of exactly one
// term: correspondences union elements into multi-schema terms, everything
// else remains a singleton. Only top-level inclusion is implied — callers
// choose element granularity by choosing which correspondences to pass
// (e.g. concept-level only, or all elements).
func Build(schemas []*schema.Schema, pairs []Correspondences) (*Vocabulary, error) {
	if len(schemas) == 0 {
		return nil, fmt.Errorf("partition: no schemata")
	}
	if len(schemas) > 32 {
		return nil, fmt.Errorf("partition: at most 32 schemata supported, got %d", len(schemas))
	}
	// Global dense handles: offset[i] + elementID.
	offsets := make([]int, len(schemas)+1)
	for i, s := range schemas {
		offsets[i+1] = offsets[i] + s.Len()
	}
	uf := newUnionFind(offsets[len(schemas)])
	for _, pc := range pairs {
		if pc.I < 0 || pc.J < 0 || pc.I >= len(schemas) || pc.J >= len(schemas) || pc.I == pc.J {
			return nil, fmt.Errorf("partition: bad schema pair (%d,%d)", pc.I, pc.J)
		}
		for _, c := range pc.Pairs {
			if c.Src < 0 || c.Src >= schemas[pc.I].Len() || c.Dst < 0 || c.Dst >= schemas[pc.J].Len() {
				return nil, fmt.Errorf("partition: correspondence %v out of range for pair (%d,%d)", c, pc.I, pc.J)
			}
			uf.union(offsets[pc.I]+c.Src, offsets[pc.J]+c.Dst)
		}
	}
	groups := make(map[int]*Term)
	v := &Vocabulary{Schemas: schemas, cells: make(map[uint32][]*Term)}
	for si, s := range schemas {
		for _, e := range s.Elements() {
			root := uf.find(offsets[si] + e.ID)
			t, ok := groups[root]
			if !ok {
				t = &Term{Members: make(map[int][]*schema.Element)}
				groups[root] = t
				v.Terms = append(v.Terms, t)
			}
			t.Members[si] = append(t.Members[si], e)
			t.Mask |= 1 << uint(si)
			if t.Label == "" || e.Name < t.Label {
				t.Label = e.Name
			}
		}
	}
	sort.Slice(v.Terms, func(i, j int) bool {
		if v.Terms[i].Label != v.Terms[j].Label {
			return v.Terms[i].Label < v.Terms[j].Label
		}
		return v.Terms[i].Mask < v.Terms[j].Mask
	})
	for _, t := range v.Terms {
		v.cells[t.Mask] = append(v.cells[t.Mask], t)
	}
	return v, nil
}

// BuildFromEngine runs the engine over every schema pair, selects
// one-to-one correspondences at the threshold, and builds the vocabulary.
// This is the N-way MATCH the paper calls for; it performs N(N-1)/2
// pairwise matches, checking ctx between them and returning its error
// once it is done.
func BuildFromEngine(ctx context.Context, eng *core.Engine, schemas []*schema.Schema, threshold float64) (*Vocabulary, error) {
	var pairs []Correspondences
	for i := 0; i < len(schemas); i++ {
		for j := i + 1; j < len(schemas); j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res := eng.Match(schemas[i], schemas[j])
			pairs = append(pairs, Correspondences{
				I: i, J: j,
				Pairs: core.SelectGreedyOneToOne(res.Matrix, threshold),
			})
			res.Release()
		}
	}
	return Build(schemas, pairs)
}

// BuildViaHub builds the vocabulary with the mediated-schema strategy of
// the paper's COI scenarios: every schema is matched only against the hub
// schema (the community vocabulary), and terms merge transitively through
// their hub element. Cost is N-1 matches instead of N(N-1)/2 — the
// scalable choice for large communities — but correspondences between two
// non-hub schemata are only found when both sides match the same hub
// element. hub is an index into schemas.
func BuildViaHub(eng *core.Engine, schemas []*schema.Schema, hub int, threshold float64) (*Vocabulary, error) {
	if hub < 0 || hub >= len(schemas) {
		return nil, fmt.Errorf("partition: hub index %d out of range", hub)
	}
	var pairs []Correspondences
	for i := range schemas {
		if i == hub {
			continue
		}
		lo, hi := hub, i
		flip := false
		if lo > hi {
			lo, hi = hi, lo
			flip = true
		}
		res := eng.Match(schemas[hub], schemas[i])
		sel := core.SelectGreedyOneToOne(res.Matrix, threshold)
		if flip {
			for k := range sel {
				sel[k].Src, sel[k].Dst = sel[k].Dst, sel[k].Src
			}
		}
		pairs = append(pairs, Correspondences{I: lo, J: hi, Pairs: sel})
	}
	return Build(schemas, pairs)
}

// NumCells returns the number of non-empty Venn cells (at most 2^N-1).
func (v *Vocabulary) NumCells() int { return len(v.cells) }

// Cell returns the terms whose schema membership is exactly mask.
func (v *Vocabulary) Cell(mask uint32) []*Term { return v.cells[mask] }

// CellCounts returns the number of terms in every possible cell, indexed
// by mask; empty cells report zero.
func (v *Vocabulary) CellCounts() map[uint32]int {
	out := make(map[uint32]int, 1<<uint(len(v.Schemas))-1)
	for mask := uint32(1); mask < 1<<uint(len(v.Schemas)); mask++ {
		out[mask] = len(v.cells[mask])
	}
	return out
}

// ExclusiveTo returns the terms found only in schema i — the N-way
// generalization of {S1-S2}.
func (v *Vocabulary) ExclusiveTo(i int) []*Term { return v.cells[1<<uint(i)] }

// SharedByAll returns the terms present in every schema — the N-way core
// vocabulary, the "concepts [that] would be most fruitful to try to
// standardize".
func (v *Vocabulary) SharedByAll() []*Term {
	return v.cells[uint32(1<<uint(len(v.Schemas)))-1]
}

// SharedBy returns terms present in at least k schemata.
func (v *Vocabulary) SharedBy(k int) []*Term {
	var out []*Term
	for _, t := range v.Terms {
		if t.Schemas() >= k {
			out = append(out, t)
		}
	}
	return out
}

// MaskName renders a cell mask as schema names, e.g. "SA∩SC∩SF".
func (v *Vocabulary) MaskName(mask uint32) string {
	var names []string
	for i, s := range v.Schemas {
		if mask&(1<<uint(i)) != 0 {
			names = append(names, s.Name)
		}
	}
	return strings.Join(names, "∩")
}

// Validate checks the partition invariants: every element of every schema
// belongs to exactly one term, every term's mask is consistent with its
// members, and cells are keyed by their terms' masks.
func (v *Vocabulary) Validate() error {
	seen := make(map[*schema.Element]bool)
	total := 0
	for _, t := range v.Terms {
		var mask uint32
		for si, els := range t.Members {
			if len(els) == 0 {
				return fmt.Errorf("partition: term %q has empty member list for schema %d", t.Label, si)
			}
			mask |= 1 << uint(si)
			for _, e := range els {
				if seen[e] {
					return fmt.Errorf("partition: element %s in two terms", e.Path())
				}
				seen[e] = true
				total++
			}
		}
		if mask != t.Mask {
			return fmt.Errorf("partition: term %q mask %b != computed %b", t.Label, t.Mask, mask)
		}
	}
	want := 0
	for _, s := range v.Schemas {
		want += s.Len()
	}
	if total != want {
		return fmt.Errorf("partition: %d elements in terms, schemas hold %d", total, want)
	}
	for mask, terms := range v.cells {
		for _, t := range terms {
			if t.Mask != mask {
				return fmt.Errorf("partition: term %q in wrong cell", t.Label)
			}
		}
	}
	return nil
}

// unionFind is a classic disjoint-set forest with path halving and union
// by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
