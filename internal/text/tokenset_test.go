package text

import (
	"math"
	"slices"
	"testing"
)

// tokenSets shapes fuzz bytes into two token sets with distinct IDs, as
// compilation produces them. The first byte picks the signature spread
// and the masks:
//
//   - the IDs take 2, 8 or 64 residues mod 64, so distinct IDs often
//     share a signature bit without sharing a token;
//   - masks are all zero (the one-count shortcut), free bits (synonym
//     pairs across lists), or a function of the ID, as interning makes
//     them, so a shared token's mask meets itself across the lists.
//
// A length byte ≥ 0x80 grows the b list past 64 positions.
func tokenSets(data []byte) (a, b TokenSet) {
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[pos%len(data)]
		pos++
		return v ^ byte(pos/len(data))
	}
	mode := next()
	residues := [...]uint32{2, 8, 64}[int(mode&3)%3]
	maskMode := (mode >> 2) % 3
	set := func(n int) TokenSet {
		var ids, masks []uint32
		for tries := 0; len(ids) < n && tries < 4*n; tries++ {
			v := uint32(next())<<8 | uint32(next())
			id := v%residues + 64*(v/residues%8)
			if slices.Contains(ids, id) {
				continue
			}
			var mask uint32
			switch maskMode {
			case 1:
				mask = uint32(next() % 16)
			case 2:
				if id%5 == 0 {
					mask = 1 << (id / 5 % 4)
				}
			}
			ids = append(ids, id)
			masks = append(masks, mask)
		}
		return NewTokenSet(ids, masks)
	}
	la := int(next() % 24)
	lb := int(next())
	if lb >= 0x80 {
		lb = 64 + lb%40
	} else {
		lb %= 24
	}
	return set(la), set(lb)
}

// FuzzTokenSetOverlap differentially checks the gated overlaps against
// the reference loops, bit for bit, in both argument orders: Overlap
// against referenceSynonymOverlapIDs, OverlapJaccard against it and
// JaccardIDs, and a Disjoint signature pair against a reference overlap
// of 0. The seed corpus lives under testdata/fuzz/FuzzTokenSetOverlap.
// Run it with
//
//	go test -run '^$' -fuzz FuzzTokenSetOverlap -fuzztime=10s ./internal/text
func FuzzTokenSetOverlap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y := tokenSets(data)
		for _, swap := range []bool{false, true} {
			a, b := &x, &y
			if swap {
				a, b = b, a
			}
			wantSyn := referenceSynonymOverlapIDs(a.IDs, a.Masks, b.IDs, b.Masks)
			wantJac := JaccardIDs(a.IDs, b.IDs)
			syn, jac := a.OverlapJaccard(b)
			if math.Float64bits(syn) != math.Float64bits(wantSyn) || math.Float64bits(jac) != math.Float64bits(wantJac) {
				t.Fatalf("OverlapJaccard = %v, %v; reference %v, %v (a %v/%v, b %v/%v)",
					syn, jac, wantSyn, wantJac, a.IDs, a.Masks, b.IDs, b.Masks)
			}
			if got := a.Overlap(b); math.Float64bits(got) != math.Float64bits(wantSyn) {
				t.Fatalf("Overlap = %v, reference %v (a %v/%v, b %v/%v)",
					got, wantSyn, a.IDs, a.Masks, b.IDs, b.Masks)
			}
			if a.Sig.Disjoint(b.Sig) && wantSyn != 0 {
				t.Fatalf("signatures read disjoint but the reference overlap is %v (a %v/%v, b %v/%v)",
					wantSyn, a.IDs, a.Masks, b.IDs, b.Masks)
			}
		}
	})
}

// TestTokenSigDisjoint pins the gate's two exactness rules: an empty list
// is never disjoint (two empty lists overlap 1), and a shared signature
// bit or synonym group keeps a pair off the gate.
func TestTokenSigDisjoint(t *testing.T) {
	empty := NewTokenSet(nil, nil)
	one := NewTokenSet([]uint32{3}, []uint32{0})
	alias := NewTokenSet([]uint32{3 + 64}, []uint32{0}) // same bit, other token
	other := NewTokenSet([]uint32{4}, []uint32{0})
	syn := NewTokenSet([]uint32{5}, []uint32{1})
	syn2 := NewTokenSet([]uint32{6}, []uint32{1})
	cases := []struct {
		name     string
		a, b     TokenSet
		disjoint bool
	}{
		{"empty-empty", empty, empty, false},
		{"empty-one", empty, one, false},
		{"distinct bits", one, other, true},
		{"colliding bit", one, alias, false},
		{"synonym masks", syn, syn2, false},
	}
	for _, c := range cases {
		if got := c.a.Sig.Disjoint(c.b.Sig); got != c.disjoint {
			t.Errorf("%s: Disjoint = %v, want %v", c.name, got, c.disjoint)
		}
	}
	if got := empty.Overlap(&empty); got != 1 {
		t.Errorf("two empty lists overlap %v, want 1", got)
	}
	if got := one.Overlap(&alias); got != 0 {
		t.Errorf("a colliding bit without a shared token overlaps %v, want 0", got)
	}
}
