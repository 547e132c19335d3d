package text

// TokenSet is a compiled token list: distinct interned token IDs in
// first-occurrence order, their synonym masks, and a signature of both.
// The match kernel compares millions of these pairs, and most pairs
// share nothing; the signature proves that with two ANDs, so the greedy
// scan runs only where it can find a match. Overlap and OverlapJaccard
// return exactly what SynonymOverlapIDs and JaccardIDs return on the
// same lists, bit for bit (FuzzTokenSetOverlap checks it).
type TokenSet struct {
	IDs   []uint32
	Masks []uint32 // Masks[i] is the synonym mask of IDs[i]
	Sig   TokenSig
}

// TokenSig summarizes a token list for the disjointness test.
type TokenSig struct {
	// Bits has bit id&63 set for every token ID; two lists with no bit
	// in common share no token. The empty list has every bit set: two
	// empty lists overlap 1, so an empty list must never read as
	// disjoint.
	Bits uint64
	// Masks is the OR of the synonym masks; two lists whose ORs do not
	// meet have no synonymous token pair.
	Masks uint32
}

// Disjoint reports whether the lists s and o summarize provably overlap
// 0: they share no token and no synonym group. A false result proves
// nothing.
func (s TokenSig) Disjoint(o TokenSig) bool {
	return s.Bits&o.Bits == 0 && s.Masks&o.Masks == 0
}

// NewTokenSet wraps distinct token IDs and their masks (the caller's
// slices, not copied) and computes their signature.
func NewTokenSet(ids, masks []uint32) TokenSet {
	sig := TokenSig{Bits: ^uint64(0)}
	if len(ids) > 0 {
		sig.Bits = 0
		for k, id := range ids {
			sig.Bits |= 1 << (id & 63)
			sig.Masks |= masks[k]
		}
	}
	return TokenSet{IDs: ids, Masks: masks, Sig: sig}
}

// Overlap is SynonymOverlapIDs(a, b).
func (a *TokenSet) Overlap(b *TokenSet) float64 {
	la, lb := len(a.IDs), len(b.IDs)
	if la == 0 || lb == 0 || a.Sig.Masks&b.Sig.Masks != 0 {
		return SynonymOverlapIDs(a.IDs, a.Masks, b.IDs, b.Masks)
	}
	if a.Sig.Bits&b.Sig.Bits == 0 {
		return 0
	}
	return float64(a.shared(b)) / float64(min(la, lb))
}

// OverlapJaccard is SynonymOverlapIDs(a, b) and JaccardIDs(a, b).
func (a *TokenSet) OverlapJaccard(b *TokenSet) (overlap, jaccard float64) {
	la, lb := len(a.IDs), len(b.IDs)
	if la == 0 || lb == 0 || a.Sig.Masks&b.Sig.Masks != 0 {
		return SynonymOverlapIDs(a.IDs, a.Masks, b.IDs, b.Masks), JaccardIDs(a.IDs, b.IDs)
	}
	if a.Sig.Bits&b.Sig.Bits == 0 {
		return 0, 0
	}
	n := a.shared(b)
	return float64(n) / float64(min(la, lb)), float64(n) / float64(la+lb-n)
}

// shared returns |A∩B| of two non-empty lists. When their masks do not
// meet, only equal IDs match, and both lists are distinct, so no two
// tokens of a compete for one token of b: the greedy count of
// SynonymOverlapIDs is exactly this intersection, as is JaccardIDs'.
func (a *TokenSet) shared(b *TokenSet) int {
	n := 0
	for _, x := range a.IDs {
		if b.Sig.Bits&(1<<(x&63)) == 0 {
			continue
		}
		for _, y := range b.IDs {
			if x == y {
				n++
				break
			}
		}
	}
	return n
}
