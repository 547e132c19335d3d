package jsonlex

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// skipsWhole reports whether SkipValue consumes all of data, surrounding
// whitespace aside.
func skipsWhole(data []byte) bool {
	l := &Lexer{Data: data}
	l.WS()
	if !l.SkipValue() {
		return false
	}
	l.WS()
	return l.Pos == len(data)
}

// TestSkipValueMatchesValid checks SkipValue against json.Valid on
// hand-made documents and on random byte edits of a document that uses
// every kind of value.
func TestSkipValueMatchesValid(t *testing.T) {
	doc := `{"a":[1,-0.5e+3,true,false,null,{}],"b":"q\"\\\/\b\f\n\r\té","c":{"d":[[]],"e":""}}`
	for _, in := range []string{
		doc, ``, ` `, `"`, `"\x"`, `"\u12g4"`, "\"a\x01\"", `01`, `-`, `1.`, `1e`, `.5`, `[1,]`, `{"a":1,}`,
		`{"a" 1}`, `{1:2}`, `[1 2]`, `tru`, `nul`, `[`, `{"a":}`, "\"\xff\"", `1 2`,
	} {
		if got, want := skipsWhole([]byte(in)), json.Valid([]byte(in)); got != want {
			t.Errorf("%q: SkipValue %v, json.Valid %v", in, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte(`{}[]":,\ 0123456789.eE+-aflnrstu`)
	for trial := 0; trial < 5000; trial++ {
		b := []byte(doc)
		for edits := 1 + rng.Intn(3); edits > 0; edits-- {
			i := rng.Intn(len(b))
			switch c := alphabet[rng.Intn(len(alphabet))]; rng.Intn(3) {
			case 0:
				b[i] = c
			case 1:
				b = append(b[:i], b[i+1:]...)
			default:
				b = append(b[:i], append([]byte{c}, b[i:]...)...)
			}
		}
		if got, want := skipsWhole(b), json.Valid(b); got != want {
			t.Fatalf("%q: SkipValue %v, json.Valid %v", b, got, want)
		}
	}
}

func TestKeyRejectsWhatNeedsFolding(t *testing.T) {
	for in, ok := range map[string]bool{
		`"name"`: true, `"n\u0061me"`: false, "\"n\xc3\xa4me\"": false, "\"a\tb\"": false, `"open`: false,
	} {
		l := &Lexer{Data: []byte(in)}
		if _, got := l.Key(); got != ok {
			t.Errorf("%q: Key ok %v, want %v", in, got, ok)
		}
	}
}
