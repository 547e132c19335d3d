package core

import (
	"harmony/internal/schema"
	"harmony/internal/text"
)

// ElementView is the compiled form of one schema element: the token
// streams, interned-ID sets and structure links every voter consumes.
// CompileSchema builds one view per element, once per schema content;
// every pairing of the profile shares them, read-only. The one
// pair-dependent input, the element's TF-IDF document vector, lives in
// the SchemaView of the pairing (SchemaView.docs). Hand-built views
// (outside tests of the abstention paths) are not supported: the voters
// read the compiled ID/rune/trigram fields.
type ElementView struct {
	El *schema.Element
	// NameTokens are the normalized (tokenized, abbreviation-expanded,
	// stemmed, digit-stripped) tokens of the element name.
	NameTokens []string
	// JoinedName is NameTokens concatenated, for character-level metrics.
	JoinedName string
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

	// Compiled flat forms, produced by compileFrom. The token sets hold
	// distinct tokens in first-occurrence order with their signatures,
	// which prove most overlaps zero before a scan. nameShape interns
	// the full name token sequence (see shapeOf); it keys the per-worker
	// hybrid name-similarity memo across matches. Paths are nearly
	// unique per element and are not interned.
	name      text.TokenSet
	path      text.TokenSet
	nameRunes []rune
	trigrams  []uint64
	acronym   string // Acronym(NameTokens), for the acronym voter
	nameShape int32
	parent    *ElementView   // the parent's view in the same profile (nil at roots)
	children  []*ElementView // the children's views in the same profile, in order
	// childSigs[k] is children[k].name.Sig, packed per container so the
	// children alignment gates a container pair without touching the
	// child views.
	childSigs []text.TokenSig
}

// SchemaView is one side of a pairing: the compiled profile's element
// views, shared with every other pairing of the profile, and this
// pairing's document vectors, both indexed by element ID.
type SchemaView struct {
	Schema  *schema.Schema
	profile *CompiledProfile
	views   []ElementView // the profile's views; read-only
	docs    []text.Vector // TF-IDF vectors under the pairing's joint IDF
}

// Len returns the number of elements in the underlying schema.
func (sv *SchemaView) Len() int { return len(sv.views) }

// View returns the compiled view of the element with the given ID. The
// view belongs to the shared compiled profile, which every pairing and
// every engine using the same ProfileCache reads, on any goroutine: the
// caller must not modify it.
func (sv *SchemaView) View(id int) *ElementView { return &sv.views[id] }

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
