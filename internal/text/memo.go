package text

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Lexical memoization.
//
// Schema corpora repeat element names and documentation strings heavily:
// a 10k-schema registry has a few hundred distinct column names, and every
// one of them is tokenized, abbreviation-expanded, and Porter-stemmed by
// each consumer of the name — the search index, the match-profile
// compiler, the corpus retrieval index, the clustering distance. Profiling
// bulk ingest shows this lexing is ~90% of per-schema CPU, so NormalizeName,
// NormalizeDoc, and LexName memoize their results here.
//
// Safety: cached slices are shared between callers and must never be
// written through. Every stored slice is clipped to zero spare capacity,
// so a caller that appends to a returned slice forces a copy instead of
// scribbling on the cache; element strings are immutable by construction.
//
// The caches are bounded: past memoEntryCap entries, lookups still hit but
// new results are returned without being stored, so an adversarial stream
// of unique names degrades to the uncached cost instead of growing the
// heap without limit.

// memoEntryCap bounds each memo table. Entries are small (a key string
// plus a handful of token strings), so the worst case is a few tens of MB.
const memoEntryCap = 1 << 17

// memoMaxKeyLen skips memoization for very long inputs — e.g. multi-KB
// documentation blobs — where a cache entry costs more than re-lexing.
const memoMaxKeyLen = 1 << 10

// Memo is one bounded concurrent memo table, tuned for the read-heavy
// steady state: loads hit an immutable published snapshot — a plain map
// read behind one atomic pointer load, no locks, several times cheaper
// than sync.Map — and at bulk-ingest rates the memo lookup itself was
// the profile's hottest line. Stores go to a mutex-guarded superset map
// that is republished as the snapshot when it outgrows the published
// one by ~25%, so the copy cost amortizes geometrically and recently
// stored keys are visible (via the slow path) even before
// republication. The zero value is an empty table.
type Memo[V any] struct {
	snap atomic.Pointer[map[string]V]
	mu   sync.Mutex
	all  map[string]V
}

// Load looks key up.
func (c *Memo[V]) Load(key string) (V, bool) {
	if m := c.snap.Load(); m != nil {
		if v, ok := (*m)[key]; ok {
			return v, true
		}
	}
	c.mu.Lock()
	v, ok := c.all[key]
	c.mu.Unlock()
	return v, ok
}

// LoadBytes is Load for a key held as bytes; it does not allocate.
func (c *Memo[V]) LoadBytes(key []byte) (V, bool) {
	if m := c.snap.Load(); m != nil {
		if v, ok := (*m)[string(key)]; ok {
			return v, true
		}
	}
	c.mu.Lock()
	v, ok := c.all[string(key)]
	c.mu.Unlock()
	return v, ok
}

// Store inserts v unless the table is at capacity (1<<17 entries) or
// key is longer than 1 KiB.
func (c *Memo[V]) Store(key string, v V) {
	if len(key) > memoMaxKeyLen {
		return
	}
	c.mu.Lock()
	if c.all == nil {
		c.all = make(map[string]V, 1024)
	}
	if len(c.all) < memoEntryCap {
		c.all[key] = v
		snap := c.snap.Load()
		if snap == nil || len(c.all) >= len(*snap)+len(*snap)/4+16 {
			m := make(map[string]V, 2*len(c.all))
			for k, vv := range c.all {
				m[k] = vv
			}
			c.snap.Store(&m)
		}
	}
	c.mu.Unlock()
}

// lexedName is the memoized lexical form of one element name.
type lexedName struct {
	norm []string // DefaultNormalize token stream
	raw  string   // lower-cased delimiter-stripped form (acronym detection)
}

var (
	nameMemo   Memo[lexedName] // element names -> lexical forms
	docMemo    Memo[[]string]  // documentation strings -> token stream
	nameIDMemo Memo[[]uint32]  // element names -> interned IDs
	docIDMemo  Memo[[]uint32]  // documentation strings -> interned IDs
)

// clip removes spare capacity so appends by callers copy instead of
// writing into the shared cached array.
func clip(s []string) []string { return s[:len(s):len(s)] }

// LexName returns both lexical forms of a schema element name from one
// memoized Tokenize pass: the DefaultNormalize token stream (what the
// matchers and indexes consume) and the delimiter-stripped raw form used
// for acronym detection. The returned slice is shared — treat it as
// read-only; appending to it is safe, writing through it is not.
func LexName(name string) ([]string, string) {
	if ln, ok := nameMemo.Load(name); ok {
		return ln.norm, ln.raw
	}
	rawToks := Tokenize(name)
	ln := lexedName{
		norm: clip(NormalizeTokens(rawToks, DefaultNormalize)),
		raw:  strings.Join(NormalizeTokens(rawToks, NormalizeOptions{DropNumeric: true}), ""),
	}
	nameMemo.Store(name, ln)
	return ln.norm, ln.raw
}

// clipIDs removes spare capacity from a cached ID slice, same contract
// as clip.
func clipIDs(s []uint32) []uint32 { return s[:len(s):len(s)] }

// NormalizeNameIDs returns the interned token IDs of NormalizeName(name),
// memoized. Indexing paths use this to skip the per-token intern-map
// lookup on repeated names. Unlike LookupInterned it INSERTS missing
// tokens into the process-wide table, so it must only be called for
// content being indexed, never for throwaway queries. The returned slice
// is shared — read-only; appending is safe, writing through is not.
func NormalizeNameIDs(name string) []uint32 {
	if ids, ok := nameIDMemo.Load(name); ok {
		return ids
	}
	ids := clipIDs(InternAll(nil, NormalizeName(name)))
	nameIDMemo.Store(name, ids)
	return ids
}

// NormalizeDocIDs is NormalizeNameIDs for documentation strings (the
// DocNormalize pipeline). Same interning and read-only contracts.
func NormalizeDocIDs(doc string) []uint32 {
	if doc == "" {
		return nil
	}
	if ids, ok := docIDMemo.Load(doc); ok {
		return ids
	}
	ids := clipIDs(InternAll(nil, NormalizeDoc(doc)))
	docIDMemo.Store(doc, ids)
	return ids
}

// normalizeDocMemo backs NormalizeDoc. Documentation strings repeat almost
// as often as names (generated and templated schemas reuse prose), and doc
// lexing additionally pays stopword removal.
func normalizeDocMemo(doc string) []string {
	if doc == "" {
		return nil
	}
	if toks, ok := docMemo.Load(doc); ok {
		return toks
	}
	toks := clip(NormalizeTokens(Tokenize(doc), DocNormalize))
	docMemo.Store(doc, toks)
	return toks
}
