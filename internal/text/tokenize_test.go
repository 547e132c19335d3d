package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"person", []string{"person"}},
		{"DATE_BEGIN_156", []string{"date", "begin", "156"}},
		{"dateBegin", []string{"date", "begin"}},
		{"PersonID", []string{"person", "id"}},
		{"HTTPServer", []string{"http", "server"}},
		{"person-id", []string{"person", "id"}},
		{"unit.code", []string{"unit", "code"}},
		{"All_Event_Vitals", []string{"all", "event", "vitals"}},
		{"DATETIME_FIRST_INFO", []string{"datetime", "first", "info"}},
		{"abc123def", []string{"abc", "123", "def"}},
		{"   ", nil},
		{"a b  c", []string{"a", "b", "c"}},
		{"XMLHttpRequest", []string{"xml", "http", "request"}},
		{"ID", []string{"id"}},
		{"42", []string{"42"}},
		{"vel_KPH", []string{"vel", "kph"}},
	}
	for _, tc := range cases {
		got := Tokenize(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeProperties(t *testing.T) {
	// No token is empty, all tokens are lower case, and tokenization is
	// idempotent on its own joined output.
	prop := func(s string) bool {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		rejoined := strings.Join(toks, "_")
		again := Tokenize(rejoined)
		return reflect.DeepEqual(toks, again)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestIsNumeric(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"156", true}, {"0", true}, {"", false}, {"a1", false}, {"1a", false},
	}
	for _, tc := range cases {
		if got := IsNumeric(tc.in); got != tc.want {
			t.Errorf("IsNumeric(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeNameDropsNumericSuffix(t *testing.T) {
	got := NormalizeName("DATE_BEGIN_156")
	for _, tok := range got {
		if IsNumeric(tok) {
			t.Errorf("NormalizeName kept numeric token %q in %v", tok, got)
		}
	}
}

func TestNormalizeNameExpandsAbbreviations(t *testing.T) {
	got := NormalizeName("QTY_AUTH")
	want := []string{Stem("quantity"), Stem("authorized")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NormalizeName(QTY_AUTH) = %v, want %v", got, want)
	}
}

func TestNormalizeDocDropsStopwords(t *testing.T) {
	got := NormalizeDoc("the date of the first event")
	for _, tok := range got {
		if IsStopword(tok) {
			t.Errorf("NormalizeDoc kept stopword %q in %v", tok, got)
		}
	}
	if len(got) == 0 {
		t.Fatal("NormalizeDoc removed every token")
	}
}

func TestNormalizeTokensDoesNotModifyInput(t *testing.T) {
	in := []string{"the", "date", "156"}
	orig := append([]string(nil), in...)
	NormalizeTokens(in, DocNormalize)
	if !reflect.DeepEqual(in, orig) {
		t.Errorf("NormalizeTokens modified its input: %v", in)
	}
}

func TestMatchingNamesNormalizeAlike(t *testing.T) {
	// The paper's running example: DATE_BEGIN_156 vs DATETIME_FIRST_INFO
	// share semantic tokens after normalization (date/begin~first).
	a := NormalizeName("DATE_BEGIN_156")
	b := NormalizeName("DATETIME_FIRST_INFO")
	aIDs, aMasks := internDistinct(a...)
	bIDs, bMasks := internDistinct(b...)
	if SynonymOverlapIDs(aIDs, aMasks, bIDs, bMasks) == 0 {
		t.Errorf("expected overlap between %v and %v", a, b)
	}
}

func TestAcronym(t *testing.T) {
	if got := Acronym([]string{"date", "time", "group"}); got != "dtg" {
		t.Errorf("Acronym = %q, want dtg", got)
	}
	if got := Acronym(nil); got != "" {
		t.Errorf("Acronym(nil) = %q, want empty", got)
	}
}
