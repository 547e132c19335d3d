package core

import (
	"harmony/internal/schema"
	"harmony/internal/text"
)

// ElementView is the preprocessed form of one schema element: the token
// streams, interned-ID sets and vectors every voter consumes. Views are
// produced by schema compilation (CompileSchema + PairProfiles) — the
// pair-independent fields are compiled once per schema content and
// reused across matches; only DocVector is materialized per pairing.
// Hand-built views (outside tests of the abstention paths) are not
// supported: the voters read the compiled ID/rune/trigram fields.
type ElementView struct {
	El *schema.Element
	// NameTokens are the normalized (tokenized, abbreviation-expanded,
	// stemmed, digit-stripped) tokens of the element name.
	NameTokens []string
	// JoinedName is NameTokens concatenated, for character-level metrics.
	JoinedName string
	// DocVector is the TF-IDF vector of the element documentation in the
	// shared corpus of the two schemata being matched.
	DocVector text.Vector
	// HasDoc reports whether the element carries real documentation; the
	// documentation voter abstains on pairs where either side has none
	// (the vector's name-token fallback is not independent evidence).
	HasDoc bool
	// RawAcronym is the element name lower-cased with delimiters removed,
	// used for acronym detection (e.g. "dtg").
	RawAcronym string
	// DocTokenCount is the length of the documentation token stream
	// (duplicates included); the documentation voter's evidence mass.
	DocTokenCount int

	// Compiled flat forms, produced by compileFrom. The ID/mask pairs
	// are distinct tokens in first-occurrence order. nameShape interns
	// the full name token sequence (see shapeOf); it keys the per-worker
	// hybrid name-similarity memo across matches. Paths are nearly
	// unique per element and are not interned.
	nameIDs   []uint32
	nameMasks []uint32
	pathIDs   []uint32
	pathMasks []uint32
	nameRunes []rune
	trigrams  []uint64
	acronym   string // Acronym(NameTokens), for the acronym voter
	nameShape int32
	parent    *ElementView   // template view of the parent (nil at roots)
	children  []*ElementView // template views of the children, in order
}

// Parent returns the parent element's compiled view, or nil for
// top-level elements.
func (v *ElementView) Parent() *ElementView { return v.parent }

// Children returns the child elements' compiled views in order.
func (v *ElementView) Children() []*ElementView { return v.children }

// SchemaView is the preprocessed form of a whole schema.
type SchemaView struct {
	Schema *schema.Schema
	Views  []ElementView // indexed by element ID
}

// Len returns the number of elements in the underlying schema.
func (sv *SchemaView) Len() int { return len(sv.Views) }

// View returns the preprocessed view of the element with the given ID.
func (sv *SchemaView) View(id int) *ElementView { return &sv.Views[id] }

// Preprocess runs linguistic preprocessing over both schemata of a match
// task and returns their views. The TF-IDF corpus covers the union of
// both schemata's documentation so that IDF weights reflect the whole
// task, plus each element's name tokens appended to its documentation —
// elements without documentation still get a usable vector.
//
// This is now a thin composition of the compiled-profile layer: each
// schema compiles independently (cacheable by fingerprint — see
// Engine.Profile) and PairProfiles materializes the pair-dependent
// TF-IDF vectors.
func Preprocess(src, dst *schema.Schema) (*SchemaView, *SchemaView) {
	return PairProfiles(CompileSchema(src), CompileSchema(dst))
}

func join(tokens []string) string {
	n := 0
	for _, t := range tokens {
		n += len(t)
	}
	b := make([]byte, 0, n)
	for _, t := range tokens {
		b = append(b, t...)
	}
	return string(b)
}
