package core

import "math/bits"

// nameMemo is the per-worker hybrid name-similarity memo (see
// hybridSimCached): an open-addressed table from name-shape pair keys
// (pairKey) to similarities, with linear probing over 16-byte slots.
// Key 0 marks an empty slot; no real key is 0, because shapes start at
// 1. The table doubles at 3/4 load up to maxMemoSlots and stops
// inserting at maxMemoEntries, where putScratch drops it. The zero
// value is an empty memo; the slots are allocated by the first put.
type nameMemo struct {
	slots []memoSlot // power-of-two length
	shift uint       // 64 - log2(len(slots)): the hash keeps the top bits
	n     int        // occupied slots
}

type memoSlot struct {
	key uint64
	val float64
}

const (
	minMemoSlots = 1 << 11
	// maxMemoSlots bounds a memo at 2^19 slots × 16 B = 8 MiB.
	maxMemoSlots   = 1 << 19
	maxMemoEntries = maxMemoSlots / 4 * 3
)

// home returns the first slot probed for key (Fibonacci hashing: shape
// pairs are small integers, and the multiply spreads them over the top
// bits).
func (m *nameMemo) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> m.shift)
}

func (m *nameMemo) get(key uint64) (float64, bool) {
	if m.n == 0 {
		return 0, false
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == 0 {
			return 0, false
		}
	}
}

// put stores v under key (which must not be 0), unless the memo holds
// maxMemoEntries already.
func (m *nameMemo) put(key uint64, v float64) {
	if m.n >= maxMemoEntries {
		return
	}
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == 0 {
			*s = memoSlot{key, v}
			m.n++
			return
		}
		if s.key == key {
			s.val = v
			return
		}
	}
}

// grow doubles the slot array (or allocates the first) and reinserts
// every entry.
func (m *nameMemo) grow() {
	old := m.slots
	size := max(2*len(old), minMemoSlots)
	m.slots = make([]memoSlot, size)
	m.shift = uint(64 - bits.Len(uint(size-1)))
	m.n = 0
	for _, s := range old {
		if s.key != 0 {
			m.put(s.key, s.val)
		}
	}
}
