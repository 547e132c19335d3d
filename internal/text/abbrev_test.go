package text

import (
	"reflect"
	"testing"
)

func TestExpandAbbreviation(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"qty", []string{"quantity"}},
		{"org", []string{"organization"}},
		{"dob", []string{"date", "birth"}}, // "of" is a stopword
		{"uom", []string{"unit", "measure"}},
		{"person", []string{"person"}}, // unknown tokens pass through
		{"dtg", []string{"date", "time", "group"}},
	}
	for _, tc := range cases {
		if got := ExpandAbbreviation(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ExpandAbbreviation(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestKnownAbbreviation(t *testing.T) {
	if _, ok := abbreviations["qty"]; !ok {
		t.Error("qty should be a known abbreviation")
	}
	if _, ok := abbreviations["quantity"]; ok {
		t.Error("quantity should not be an abbreviation")
	}
	if len(abbreviations) < 80 {
		t.Errorf("abbreviation dictionary too small: %d", len(abbreviations))
	}
}
