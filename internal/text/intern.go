package text

import "sync"

// Token interning gives every distinct normalized token a process-wide
// dense uint32 ID plus a synonym-group bitmask, so the match kernel can
// compare tokens by integer equality and a single AND instead of string
// comparisons and synonym-index map lookups. The table is append-only:
// IDs are never reassigned, which is what lets compiled schema profiles
// keep raw IDs across their whole lifetime.
type internTable struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	masks []uint32 // indexed by ID
}

var interns = internTable{ids: make(map[string]uint32, 1024)}

// InternMasked returns the process-wide ID of a normalized token together
// with its synonym-group bitmask: bit i is set when the token belongs to
// synonym group i. Two interned tokens are synonyms exactly when their
// IDs are equal or their masks intersect.
func InternMasked(tok string) (id, mask uint32) {
	interns.mu.RLock()
	id, ok := interns.ids[tok]
	if ok {
		mask = interns.masks[id]
	}
	interns.mu.RUnlock()
	if ok {
		return id, mask
	}
	interns.mu.Lock()
	defer interns.mu.Unlock()
	if id, ok = interns.ids[tok]; ok {
		return id, interns.masks[id]
	}
	id = uint32(len(interns.masks))
	mask = synonymMaskOf(tok)
	interns.ids[tok] = id
	interns.masks = append(interns.masks, mask)
	return id, mask
}

// LookupInterned returns the ID of a token that has already been interned,
// without inserting it. Readers that only want to *match* against interned
// data (the search index scoring free-text queries) use this so throwaway
// query tokens do not grow the process-wide table.
func LookupInterned(tok string) (uint32, bool) {
	interns.mu.RLock()
	id, ok := interns.ids[tok]
	interns.mu.RUnlock()
	return id, ok
}

// InternAll interns a batch of tokens, appending their IDs to dst. The
// common all-hit case pays one read-lock round trip for the whole batch
// instead of one per token; only tokens missing from the table fall back
// to the write path.
func InternAll(dst []uint32, toks []string) []uint32 {
	interns.mu.RLock()
	miss := -1
	for i, t := range toks {
		id, ok := interns.ids[t]
		if !ok {
			miss = i
			break
		}
		dst = append(dst, id)
	}
	interns.mu.RUnlock()
	if miss < 0 {
		return dst
	}
	for _, t := range toks[miss:] {
		id, _ := InternMasked(t)
		dst = append(dst, id)
	}
	return dst
}

// synonymMaskOf folds a token's synonym-group memberships into a bitmask.
// The group count is bounded by the width of the mask
// (TestSynonymGroupsFitMask in intern_test.go guards it); tokens outside
// every group get mask 0, so a token with no synonym group is a synonym
// only of itself.
func synonymMaskOf(tok string) uint32 {
	var m uint32
	for _, gi := range synonymIndex[tok] {
		m |= 1 << uint(gi)
	}
	return m
}
