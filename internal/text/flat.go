package text

import (
	"math/bits"
	"sort"
)

// This file holds the name-similarity kernels of the name voter. They
// run allocation-free on data precompiled into schema profiles: interned
// token IDs and synonym masks, decoded rune slices, and packed trigram
// multisets. Every name score the engine produces flows through them,
// so a change here changes match results: it needs a proof of
// equivalence, not just a passing quality gate.

// SynonymOverlapIDs is the synonym-aware overlap coefficient of two
// interned token lists: tokens count as shared when their IDs are equal
// or their synonym masks meet. Both argument pairs must be distinct-token
// lists in first-occurrence order (as produced by compilation), with
// masks[i] the synonym bitmask of ids[i]. Each token of A takes the
// first free token of B it matches (greedy one-to-one alignment), and
// the score is matched / min(|A|,|B|). Two empty lists score 1.
func SynonymOverlapIDs(aIDs []uint32, aMasks []uint32, bIDs []uint32, bMasks []uint32) float64 {
	la, lb := len(aIDs), len(bIDs)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	matched := 0
	if lb <= 64 {
		// The unused positions of b as set bits, visited in ascending
		// order like the slice loop below; used positions cost nothing.
		free := ^uint64(0) >> (64 - lb)
		bMasks := bMasks[:lb] // as long as bIDs; lets the loop skip bounds checks
		for i := 0; i < la && free != 0; i++ {
			id, mask := aIDs[i], aMasks[i]
			for f := free; f != 0; f &= f - 1 {
				j := bits.TrailingZeros64(f)
				if id == bIDs[j] || mask&bMasks[j] != 0 {
					free &^= 1 << j
					matched++
					break
				}
			}
		}
	} else {
		used := make([]bool, lb)
		for i := 0; i < la; i++ {
			id, mask := aIDs[i], aMasks[i]
			for j := 0; j < lb; j++ {
				if !used[j] && (id == bIDs[j] || mask&bMasks[j] != 0) {
					used[j] = true
					matched++
					break
				}
			}
		}
	}
	m := la
	if lb < m {
		m = lb
	}
	return float64(matched) / float64(m)
}

// JaccardIDs is the Jaccard similarity of two distinct interned-token
// lists: |A∩B| / |A∪B|. Inputs must already be deduplicated. Two empty
// lists score 1.
func JaccardIDs(a, b []uint32) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	inter := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				inter++
				break
			}
		}
	}
	return float64(inter) / float64(la+lb-inter)
}

// JaroWinklerRunes is the Jaro-Winkler similarity of two rune slices:
// their Jaro similarity boosted by the shared prefix (up to 4 runes)
// with the standard scaling factor 0.1. Two empty slices score 1, one
// empty slice scores 0. It allocates nothing for names up to 64 runes
// (the common case for joined element names).
func JaroWinklerRunes(ra, rb []rune) float64 {
	j := jaroRunes(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func jaroRunes(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	var aArr, bArr [64]bool
	var aMatch, bMatch []bool
	if la <= len(aArr) {
		aMatch = aArr[:la]
	} else {
		aMatch = make([]bool, la)
	}
	if lb <= len(bArr) {
		bMatch = bArr[:lb]
	} else {
		bMatch = make([]bool, lb)
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatch[j] || ra[i] != rb[j] {
				continue
			}
			aMatch[i] = true
			bMatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// TrigramsPacked packs every character trigram of r into a uint64
// (3 runes × 21 bits — collision-free since runes are < 2^21) and
// returns the sorted multiset. Compiled once per element, compared
// millions of times via DiceSortedPacked.
func TrigramsPacked(r []rune) []uint64 {
	if len(r) < 3 {
		return nil
	}
	out := make([]uint64, 0, len(r)-2)
	for i := 0; i+3 <= len(r); i++ {
		out = append(out, uint64(r[i])<<42|uint64(r[i+1])<<21|uint64(r[i+2]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DiceSortedPacked is the multiset Dice coefficient over two sorted
// packed-trigram slices: 2·|common| / (|A|+|B|), where a trigram that
// occurs m times in A and n times in B counts min(m, n) times. Both
// slices must be non-empty: callers score equal names 1 and a name too
// short for trigrams 0 against any other name.
func DiceSortedPacked(a, b []uint64) float64 {
	common := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return 2 * float64(common) / float64(len(a)+len(b))
}
