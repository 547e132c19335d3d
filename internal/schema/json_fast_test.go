package schema

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// stdParse is the reference decode path the fast parser must agree with.
func stdParse(data []byte) (*Schema, error) {
	var js jsonSchema
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("schema json: %w", err)
	}
	return schemaFromJSON(&js)
}

// differential asserts that ParseJSON (fast path + fallback) and the pure
// encoding/json path agree on success/failure and, on success, produce
// byte-identical re-marshaled schemas.
func differential(t *testing.T, input string) {
	t.Helper()
	got, gotErr := ParseJSON([]byte(input))
	want, wantErr := stdParse([]byte(input))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: fast err=%v std err=%v", input, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	g, _ := got.MarshalJSON()
	w, _ := want.MarshalJSON()
	if !bytes.Equal(g, w) {
		t.Fatalf("input %q:\nfast: %s\nstd:  %s", input, g, w)
	}
	if got.Len() != want.Len() || got.Doc != want.Doc || got.Format != want.Format {
		t.Fatalf("input %q: schema metadata diverges", input)
	}
	for i, ge := range got.Elements() {
		we := want.Elements()[i]
		if ge.Name != we.Name || ge.Doc != we.Doc || ge.Kind != we.Kind ||
			ge.Type != we.Type || ge.Path() != we.Path() {
			t.Fatalf("input %q: element %d diverges: %+v vs %+v", input, i, ge, we)
		}
	}
}

func TestParseJSONFastDifferential(t *testing.T) {
	cases := []string{
		// Plain round-trip shapes.
		`{"name":"s","format":"relational","elements":[{"name":"t","kind":"table","children":[{"name":"c","kind":"column","type":"string"}]}]}`,
		`{"name":"s","elements":[]}`,
		`{"name":"s"}`,
		`{"name":"s","doc":"a schema","elements":[{"name":"a","kind":"column","doc":"docs here"}]}`,
		// Whitespace everywhere.
		" {\n\t\"name\" : \"s\" ,\n \"elements\" : [ { \"name\" : \"x\" , \"kind\" : \"table\" } ] }\n",
		// Unknown fields of every JSON type, skipped.
		`{"name":"s","extra":123,"more":{"a":[1,2,{"b":null}]},"flag":true,"none":null,"num":-1.5e3}`,
		// Escapes: quotes, backslashes, unicode, surrogate pair.
		`{"name":"a\"b\\c\/d\n\t","doc":"caf\u00e9 \ud83d\ude00"}`,
		// Null into string fields leaves them zero; null doc.
		`{"name":"s","doc":null,"format":null}`,
		// Duplicate scalar keys: last wins either way.
		`{"name":"first","name":"second"}`,
		// Case-mismatched known key: std case-folds, fast must defer.
		`{"Name":"s"}`,
		`{"name":"s","Elements":[{"name":"x","kind":"table"}]}`,
		// Non-ASCII without escapes.
		`{"name":"sch\u00e9ma"}`,
		`{"name":"日本語"}`,
		// Unicode-folded key (Kelvin sign folds to 'k'): std matches it
		// onto the kind field, so the fast path must defer.
		"{\"name\":\"s\",\"elements\":[{\"name\":\"x\",\"Kind\":\"table\"}]}",
		// Escaped known key: std unquotes before matching.
		"{\"name\":\"s\",\"elements\":[{\"name\":\"x\",\"ki\\u006ed\":\"table\"}]}",
		// Null arrays: no elements, no error.
		`{"name":"s","elements":null}`,
		`{"name":"s","elements":[{"name":"x","kind":"column","children":null}]}`,
		// Schema-level keys after the elements array (std accepts any order).
		`{"elements":[{"name":"x","kind":"table"}],"name":"s","format":"relational"}`,
		// Element keys after children: std applies them; fast path defers.
		`{"name":"s","elements":[{"name":"x","kind":"table","children":[],"doc":"late"}]}`,
		`{"name":"s","elements":[{"kind":"table","children":[{"name":"c","kind":"column"}],"name":"x"}]}`,
		// Duplicate array keys: std merges element-wise; fast path defers.
		`{"name":"s","elements":[{"name":"x","kind":"table"}],"elements":[]}`,
		`{"name":"s","elements":[{"name":"x","kind":"table","children":[{"name":"c","kind":"column"}],"children":[]}]}`,
		// Duplicate scalar keys inside an element: last wins either way.
		`{"name":"s","elements":[{"name":"x","name":"y","kind":"table"}]}`,
		// Unknown kind/type/format strings map to the unknown enum.
		`{"name":"s","format":"carrier-pigeon","elements":[{"name":"x","kind":"blob","type":"quaternion"}]}`,
		// Invalid UTF-8 raw bytes in a skipped field: std tolerates them.
		"{\"name\":\"s\",\"junk\":\"a\xffb\"}",
		// Invalid UTF-8 in a used field: std rewrites to U+FFFD.
		"{\"name\":\"a\xffb\"}",
		// Empty name: app-level error from both paths.
		`{"format":"relational"}`,
		`{"name":"s","elements":[{"kind":"table"}]}`,
		// Children under a non-container kind: app-level error.
		`{"name":"s","elements":[{"name":"c","kind":"column","children":[{"name":"x","kind":"column"}]}]}`,
		// Malformed JSON of assorted shapes.
		`{"name":"s"`,
		`{"name":}`,
		`{"name":"s",}`,
		`{"name":"s"} trailing`,
		`{"name":"s","elements":[{}`,
		`{"name":"s","num":01}`,
		`{"name":"s","num":1.}`,
		`{"name":"s","num":1e}`,
		`{"name":"s","bad":tru}`,
		`[]`,
		`"just a string"`,
		``,
		`   `,
		// Control character in a string: invalid JSON.
		"{\"name\":\"a\x01b\"}",
		// Lone surrogate escape: std maps to U+FFFD.
		`{"name":"a\ud800z"}`,
		`{"name":"a\ud800\ud800z"}`,
		// A broken pair's second escape decodes on its own: a control
		// character, or the start of a valid pair.
		`{"name":"\ud800\u0000"}`,
		`{"name":"\ud800\ud800\udc00"}`,
	}
	for _, c := range cases {
		differential(t, c)
	}
}

// FuzzParseJSONFast widens the differential check to arbitrary inputs:
// every snapshot and journal schema a restart decodes goes through the
// fast scanner, so any input where it and encoding/json disagree is a
// bug. The seed corpus under testdata/fuzz/FuzzParseJSONFast holds the
// TestParseJSONFastDifferential cases. Run it with
//
//	go test -run '^$' -fuzz FuzzParseJSONFast -fuzztime=10s ./internal/schema
func FuzzParseJSONFast(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		differential(t, input)
	})
}

// TestParseJSONFastUsesFastPath pins that the canonical marshal form —
// what the registry journal and bulk ingest actually feed through — is
// handled by the scanner, not the fallback.
func TestParseJSONFastUsesFastPath(t *testing.T) {
	s := New("orders", FormatRelational)
	root := s.AddElement(nil, "orders_root", KindTable, TypeNone)
	s.AddElement(root, "order_id", KindColumn, TypeInteger)
	c := s.AddElement(root, "customer_name", KindColumn, TypeString)
	c.Doc = "who placed the \"order\""
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parseSchemaFast(data); !ok {
		t.Fatalf("canonical marshal form fell back to encoding/json: %s", data)
	}
	differential(t, string(data))
}

// TestParseJSONFastConcurrent parses overlapping schemas from several
// goroutines at once, as restart workers do, so the race detector sees
// the intern table under concurrent inserts and lookups. Every
// parse must give the serial parse's marshal form, and repeated names
// must come back as one canonical string.
func TestParseJSONFastConcurrent(t *testing.T) {
	var docs [][]byte
	for k := 0; k < 8; k++ {
		s := New(fmt.Sprintf("concurrent_%d", k), FormatRelational)
		root := s.AddElement(nil, fmt.Sprintf("table_%d", k), KindTable, TypeNone)
		for i := 0; i < 40; i++ {
			// Half the columns are shared by every schema, half are unique.
			name := fmt.Sprintf("shared_column_%d", i)
			if i%2 == 1 {
				name = fmt.Sprintf("column_%d_of_%d", i, k)
			}
			e := s.AddElement(root, name, KindColumn, TypeString)
			e.Doc = fmt.Sprintf("documentation %d", i%5)
		}
		data, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				for i := range docs {
					k := (i + w) % len(docs)
					got, ok := parseSchemaFast(docs[k])
					if !ok {
						t.Errorf("worker %d: schema %d fell back to encoding/json", w, k)
						return
					}
					if g, _ := got.MarshalJSON(); !bytes.Equal(g, docs[k]) {
						t.Errorf("worker %d: schema %d parsed to %s", w, k, g)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	name := []byte("shared_column_0")
	if a, b := internBytes(name), internBytes(name); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("a repeated name was not interned to one string")
	}
}

// TestInternHitAllocationFree: looking up an interned string by its
// bytes allocates nothing.
func TestInternHitAllocationFree(t *testing.T) {
	name := []byte("intern_hit_column")
	want := internBytes(name)
	if allocs := testing.AllocsPerRun(100, func() {
		if internBytes(name) != want {
			t.Fatal("intern hit returned another string")
		}
	}); allocs != 0 {
		t.Fatalf("an intern hit allocated %.1f times", allocs)
	}
}

func BenchmarkParseJSON(b *testing.B) {
	s := New("bench", FormatRelational)
	root := s.AddElement(nil, "bench_root", KindTable, TypeNone)
	for i := 0; i < 30; i++ {
		e := s.AddElement(root, fmt.Sprintf("column_number_%d", i), KindColumn, TypeString)
		e.Doc = "documentation text for the column"
	}
	data, _ := s.MarshalJSON()
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("std", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := stdParse(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
