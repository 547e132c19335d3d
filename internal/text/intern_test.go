package text

import "testing"

// synonyms applies the rule the match kernel uses on interned tokens:
// two tokens are synonyms when their IDs are equal or their synonym
// masks meet.
func synonyms(a, b string) bool {
	ida, ma := InternMasked(a)
	idb, mb := InternMasked(b)
	return ida == idb || ma&mb != 0
}

func TestSynonymous(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{Stem("begin"), Stem("start"), true},
		{Stem("weapon"), Stem("munition"), true},
		{Stem("person"), Stem("individual"), true},
		{Stem("person"), Stem("vehicle"), false},
		{"same", "same", true},
		{"zzz", "qqq", false},
	}
	for _, tc := range cases {
		if got := synonyms(tc.a, tc.b); got != tc.want {
			t.Errorf("synonyms(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	// every pair within a group, in both orders
	for _, g := range synonymGroups {
		for _, a := range g {
			for _, b := range g {
				sa, sb := Stem(a), Stem(b)
				if !synonyms(sa, sb) || !synonyms(sb, sa) {
					t.Errorf("synonyms(%q,%q) not symmetric-true", sa, sb)
				}
			}
		}
	}
	if len(synonymGroups) < 20 {
		t.Errorf("synonym dictionary too small: %d", len(synonymGroups))
	}
}

// TestSynonymGroupsFitMask guards synonymMaskOf: group i sets bit i of a
// uint32 mask, so a 33rd group would get no bit and its synonyms would
// silently stop matching.
func TestSynonymGroupsFitMask(t *testing.T) {
	if n := len(synonymGroups); n > 32 {
		t.Fatalf("%d synonym groups do not fit a 32-bit synonym mask", n)
	}
}
