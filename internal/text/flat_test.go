package text

import (
	"math"
	"testing"
)

// referenceSynonymOverlapIDs is SynonymOverlapIDs as it was written
// before its used set became a bitmask: a bool per position of b, greedy
// first-fit in the same scan order. FuzzSynonymOverlapIDs checks the
// production function against it.
func referenceSynonymOverlapIDs(aIDs []uint32, aMasks []uint32, bIDs []uint32, bMasks []uint32) float64 {
	la, lb := len(aIDs), len(bIDs)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	used := make([]bool, lb)
	matched := 0
	for i := 0; i < la; i++ {
		id, mask := aIDs[i], aMasks[i]
		for j := 0; j < lb; j++ {
			if used[j] {
				continue
			}
			if id == bIDs[j] || mask&bMasks[j] != 0 {
				used[j] = true
				matched++
				break
			}
		}
	}
	return float64(matched) / float64(min(la, lb))
}

// overlapLists shapes fuzz bytes into two token lists with synonym masks.
// IDs come from a small alphabet in byte order, so lists share tokens in
// arbitrary orders; masks use four bits, so synonym groups overlap and a
// greedy first fit can block a later token. A length byte ≥ 0x80 grows
// the b list past 64 positions, the bitmask's limit.
func overlapLists(data []byte) (aIDs, aMasks, bIDs, bMasks []uint32) {
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return b ^ byte(pos/len(data))
	}
	list := func(n int) (ids, masks []uint32) {
		for range n {
			ids = append(ids, uint32(next()%24))
			masks = append(masks, uint32(next()%16))
		}
		return ids, masks
	}
	la := int(next() % 80)
	lb := int(next())
	if lb >= 0x80 {
		lb = 64 + lb%40
	} else {
		lb %= 65
	}
	aIDs, aMasks = list(la)
	bIDs, bMasks = list(lb)
	return aIDs, aMasks, bIDs, bMasks
}

// FuzzSynonymOverlapIDs differentially checks SynonymOverlapIDs against
// the reference loop above, bit for bit, in both argument orders. The
// seed corpus lives under testdata/fuzz/FuzzSynonymOverlapIDs. Run it
// with
//
//	go test -run '^$' -fuzz FuzzSynonymOverlapIDs -fuzztime=10s ./internal/text
func FuzzSynonymOverlapIDs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		aIDs, aMasks, bIDs, bMasks := overlapLists(data)
		for _, swap := range []bool{false, true} {
			a, am, b, bm := aIDs, aMasks, bIDs, bMasks
			if swap {
				a, am, b, bm = b, bm, a, am
			}
			got := SynonymOverlapIDs(a, am, b, bm)
			want := referenceSynonymOverlapIDs(a, am, b, bm)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("|a|=%d |b|=%d: got %v, reference %v (a %v/%v, b %v/%v)",
					len(a), len(b), got, want, a, am, b, bm)
			}
		}
	})
}

// TestSynonymOverlapIDsBeyondBitmask pins the slice path: with more than
// 64 positions in b, a match at position 64 and beyond still counts.
func TestSynonymOverlapIDsBeyondBitmask(t *testing.T) {
	b := make([]uint32, 70)
	bm := make([]uint32, 70)
	for j := range b {
		b[j] = uint32(100 + j)
	}
	a := []uint32{100 + 64, 100 + 69, 100 + 2}
	am := []uint32{0, 0, 0}
	if got := SynonymOverlapIDs(a, am, b, bm); got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
}
