package text

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
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

// internDistinct interns tokens and returns their distinct IDs in
// first-occurrence order with their synonym masks, as compilation
// builds the kernels' token lists.
func internDistinct(toks ...string) (ids, masks []uint32) {
	for _, tok := range toks {
		id, mask := InternMasked(tok)
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
			masks = append(masks, mask)
		}
	}
	return ids, masks
}

func TestJaroWinkler(t *testing.T) {
	jw := func(a, b string) float64 { return JaroWinklerRunes([]rune(a), []rune(b)) }
	if got := jw("martha", "marhta"); math.Abs(got-0.9611) > 0.001 {
		t.Errorf("JaroWinklerRunes(martha,marhta) = %f, want 0.9611", got)
	}
	if got := jw("dwayne", "duane"); math.Abs(got-0.84) > 0.001 {
		t.Errorf("JaroWinklerRunes(dwayne,duane) = %f, want 0.8400", got)
	}
	if got := jw("", ""); got != 1 {
		t.Errorf("JaroWinklerRunes empty = %f, want 1", got)
	}
	if got := jw("abc", ""); got != 0 {
		t.Errorf("JaroWinklerRunes(abc,\"\") = %f, want 0", got)
	}
}

// dice is DiceSortedPacked over the packed trigrams of two strings; ok
// is false when either string is too short for a trigram, which callers
// score without the kernel.
func dice(a, b string) (s float64, ok bool) {
	ga, gb := TrigramsPacked([]rune(a)), TrigramsPacked([]rune(b))
	if len(ga) == 0 || len(gb) == 0 {
		return 0, false
	}
	return DiceSortedPacked(ga, gb), true
}

// small folds a random string onto a four-letter alphabet and 16 runes,
// so two of them share characters and trigrams often enough to exercise
// the matching paths.
func small(s string) string {
	r := []rune(s)
	if len(r) > 16 {
		r = r[:16]
	}
	for i := range r {
		r[i] = 'a' + r[i]&3
	}
	return string(r)
}

func TestSimilarityBoundsAndSymmetry(t *testing.T) {
	jw := func(a, b string) bool {
		a, b = small(a), small(b)
		s := JaroWinklerRunes([]rune(a), []rune(b))
		return s >= 0 && s <= 1+1e-9 &&
			math.Abs(s-JaroWinklerRunes([]rune(b), []rune(a))) <= 1e-9 &&
			JaroWinklerRunes([]rune(a), []rune(a)) > 1-1e-9
	}
	if err := quick.Check(jw, &quick.Config{MaxCount: 150}); err != nil {
		t.Errorf("JaroWinklerRunes: %v", err)
	}
	trigramDice := func(a, b string) bool {
		a, b = small(a), small(b)
		s, ok := dice(a, b)
		if !ok {
			return true
		}
		rev, _ := dice(b, a)
		self, _ := dice(a, a)
		return s >= 0 && s <= 1+1e-9 && math.Abs(s-rev) <= 1e-9 && self > 1-1e-9
	}
	if err := quick.Check(trigramDice, &quick.Config{MaxCount: 150}); err != nil {
		t.Errorf("DiceSortedPacked: %v", err)
	}
}

func TestNGramDiceEdgeCases(t *testing.T) {
	if got := TrigramsPacked([]rune("ab")); got != nil {
		t.Errorf("a name too short for trigrams packed %v, want none", got)
	}
	// repeated grams are multiset-counted
	if got, _ := dice("aaaa", "aaaa"); got != 1 {
		t.Errorf("repeated grams = %f, want 1", got)
	}
	if got, _ := dice("aaaa", "aaa"); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("aaaa vs aaa = %f, want 2/3 (one of two aaa grams shared)", got)
	}
}

func TestTokenJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a", "a", "b"}, []string{"a", "b"}, 1},
		{[]string{"x"}, []string{"y"}, 0},
	}
	for _, tc := range cases {
		a, _ := internDistinct(tc.a...)
		b, _ := internDistinct(tc.b...)
		if got := JaccardIDs(a, b); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("JaccardIDs(%v,%v) = %f, want %f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSynonymAwareOverlap(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{Stem("begin"), Stem("date")}, []string{Stem("start"), Stem("date")}, 1},
		{[]string{Stem("weapon")}, []string{Stem("armament")}, 1},
		{[]string{"zzz"}, []string{"qqq"}, 0},
	}
	for _, tc := range cases {
		a, am := internDistinct(tc.a...)
		b, bm := internDistinct(tc.b...)
		if got := SynonymOverlapIDs(a, am, b, bm); got != tc.want {
			t.Errorf("SynonymOverlapIDs(%v,%v) = %f, want %f", tc.a, tc.b, got, tc.want)
		}
	}
}
