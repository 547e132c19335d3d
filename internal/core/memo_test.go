package core

import (
	"math"
	"testing"
)

// memoTestValue is a distinct, exactly representable value per key.
func memoTestValue(key uint64) float64 { return float64(key) / 1024 }

// TestNameMemo fills a memo through every growth up to its entry bound:
// every stored key reads back its value exactly, keys never stored miss,
// inserts past the bound are dropped, and putScratch drops a memo at the
// bound while it keeps a smaller one.
func TestNameMemo(t *testing.T) {
	var m nameMemo
	if _, ok := m.get(pairKey(1, 1)); ok {
		t.Fatal("empty memo hit")
	}
	// Keys as hybridSimCached forms them: dense shape pairs from 1.
	keys := make([]uint64, 0, maxMemoEntries)
	for a := int32(1); len(keys) < maxMemoEntries; a++ {
		for b := int32(1); b <= 1000 && len(keys) < maxMemoEntries; b++ {
			keys = append(keys, pairKey(a, b))
		}
	}
	growths, size := 0, 0
	for k, key := range keys {
		m.put(key, memoTestValue(key))
		if len(m.slots) != size {
			growths, size = growths+1, len(m.slots)
		}
		// Spot-check every entry so far at each power of two.
		if k&(k+1) == 0 {
			for _, old := range keys[:k+1] {
				if v, ok := m.get(old); !ok || math.Float64bits(v) != math.Float64bits(memoTestValue(old)) {
					t.Fatalf("after %d inserts: get(%#x) = %v, %v", k+1, old, v, ok)
				}
			}
		}
	}
	if growths < 5 || size != maxMemoSlots || m.n != maxMemoEntries {
		t.Fatalf("%d growths to %d slots holding %d entries; want several growths to %d slots holding %d",
			growths, size, m.n, maxMemoSlots, maxMemoEntries)
	}
	for _, key := range keys {
		if v, ok := m.get(key); !ok || math.Float64bits(v) != math.Float64bits(memoTestValue(key)) {
			t.Fatalf("get(%#x) = %v, %v at the bound", key, v, ok)
		}
	}
	extra := pairKey(1<<20, 1)
	m.put(extra, 1)
	if _, ok := m.get(extra); ok || m.n != maxMemoEntries {
		t.Fatalf("insert past the entry bound was stored (%d entries)", m.n)
	}

	// reset is putScratch without the pool: the values stored here are
	// not similarities, and a pooled scratch would serve them to later
	// matches in the process.
	sc := &pairScratch{hybrid: m}
	sc.reset()
	if sc.hybrid.n != 0 || sc.hybrid.slots != nil {
		t.Fatalf("putScratch kept a memo at the bound (%d entries)", sc.hybrid.n)
	}
	small := &pairScratch{}
	small.hybrid.put(pairKey(1, 2), 0.5)
	small.reset()
	if small.hybrid.n != 1 {
		t.Fatal("putScratch dropped a memo below the bound")
	}
}
