package text

import "testing"

func TestAbbreviationExpansionsAreWords(t *testing.T) {
	// Every expansion must be non-empty lower-case words without digits.
	for abbr := range abbreviations {
		for _, w := range ExpandAbbreviation(abbr) {
			if w == "" || IsNumeric(w) {
				t.Errorf("abbreviation %q expands to bad word %q", abbr, w)
			}
			for _, r := range w {
				if r < 'a' || r > 'z' {
					t.Errorf("abbreviation %q expansion %q has non-letter", abbr, w)
				}
			}
		}
	}
}

func TestCorpusEmptyAndSingleton(t *testing.T) {
	empty := NewCorpus(nil)
	if empty.NumDocs() != 0 || empty.VocabularySize() != 0 {
		t.Errorf("empty corpus: %d docs, %d vocab", empty.NumDocs(), empty.VocabularySize())
	}
	v := empty.Vector([]string{"a"})
	if v.IsZero() {
		t.Error("vector over empty corpus should still be buildable")
	}
	single := NewCorpus([][]string{{"x", "x", "y"}})
	vx := single.Vector([]string{"x"})
	vy := single.Vector([]string{"y"})
	if Cosine(vx, vy) != 0 {
		t.Error("disjoint singleton vectors should have zero cosine")
	}
}

func TestVectorLen(t *testing.T) {
	c := NewCorpus([][]string{{"a", "b"}})
	v := c.Vector([]string{"a", "b", "b"})
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
	if (Vector{}).Len() != 0 || !(Vector{}).IsZero() {
		t.Error("zero vector misbehaves")
	}
}

func TestStemPreservesNonLetters(t *testing.T) {
	// tokens with digits pass through untouched (stemmer only sees
	// letters in practice, but must not corrupt others)
	if got := Stem("x1y"); got != "x1y" {
		t.Errorf("Stem(x1y) = %q", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Größe_Straße")
	if len(got) != 2 {
		t.Fatalf("unicode tokens = %v", got)
	}
	if got[0] != "größe" || got[1] != "straße" {
		t.Errorf("unicode lowering failed: %v", got)
	}
}
