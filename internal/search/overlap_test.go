package search

import (
	"fmt"
	"testing"

	"harmony/internal/schema"
	"harmony/internal/text"
)

// overlapWords is the vocabulary fuzzed schemata draw element names and
// docs from: shared words make documents overlap, and stopwords,
// abbreviations and stemmable forms exercise normalization.
var overlapWords = []string{
	"order", "orders", "total", "ship", "date", "part", "weight", "name",
	"customer", "address", "city", "code", "amount", "status", "qty",
	"num", "id", "the", "of", "shipping", "dt", "desc", "x",
}

// unseenToken returns a token no index has interned, which normalizes to
// itself: a query-only token the index must never intern.
func unseenToken() string {
	for k := 0; ; k++ {
		tok := "zqxv"
		for n := k; ; n /= 26 {
			tok += string(rune('a' + n%26))
			if n < 26 {
				break
			}
		}
		if _, interned := text.LookupInterned(tok); interned {
			continue
		}
		if norm := text.NormalizeName(tok); len(norm) == 1 && norm[0] == tok {
			return tok
		}
	}
}

// overlapSchema builds one schema from the fuzz bytes: a root plus up to
// four columns, each named from one or two vocabulary words, some with a
// doc; extra (arbitrary text) names and documents the last column when
// non-empty.
func overlapSchema(name string, next func() byte, extra string) *schema.Schema {
	word := func() string { return overlapWords[int(next())%len(overlapWords)] }
	s := schema.New(name, schema.FormatRelational)
	root := s.AddRoot(word()+"_"+word(), schema.KindTable)
	cols := 1 + int(next())%4
	for i := 0; i < cols; i++ {
		colName := word()
		if next()%2 == 0 {
			colName += "_" + word()
		}
		el := s.AddElement(root, colName, schema.KindColumn, schema.TypeString)
		if b := next(); b%3 == 0 {
			el.Doc = word() + " " + word() + " " + word()
		}
	}
	if extra != "" {
		el := s.AddElement(root, extra, schema.KindColumn, schema.TypeString)
		el.Doc = extra
	}
	return s
}

// overlapTokenSet is the string-set reference: every element's
// normalized name and doc tokens, as the index tokenizes them.
func overlapTokenSet(s *schema.Schema) map[string]bool {
	set := make(map[string]bool)
	for _, e := range s.Elements() {
		for _, tok := range text.NormalizeName(e.Name) {
			set[tok] = true
		}
		for _, tok := range text.NormalizeDoc(e.Doc) {
			set[tok] = true
		}
	}
	return set
}

// referenceOverlap is |Q∩D| / min(|Q|,|D|) over string sets.
func referenceOverlap(q, d map[string]bool) (float64, int) {
	inter := 0
	for tok := range q {
		if d[tok] {
			inter++
		}
	}
	n := min(len(q), len(d))
	if n == 0 {
		return 0, inter
	}
	return float64(inter) / float64(n), inter
}

// FuzzSchemaOverlap differentially checks the overlap coefficient
// SearchSchemaInfo reports per hit against a string-set reference built
// from the same tokenization. The fuzz bytes shape up to six indexed
// schemata and a query; extra is arbitrary text indexed as one column
// of the first schema; compact moves the documents from the mutable tail
// into a flat segment (after replacing the first schema, so the segment
// holds a dead document). The query always carries a token that was
// never interned: it counts toward |Q| and must stay uninterned. Every
// document sharing a token with the query must be a hit. The seed corpus
// lives under testdata/fuzz/FuzzSchemaOverlap. Run it with
//
//	go test -run '^$' -fuzz FuzzSchemaOverlap -fuzztime=10s ./internal/search
func FuzzSchemaOverlap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, extra string, compact bool) {
		// Every indexed token stays interned and memoized for the life of
		// the process; short extras keep a long fuzz run's heap small.
		extra = extra[:min(len(extra), 64)]
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b ^ byte(pos/len(data))
		}
		nDocs := 1 + int(next())%6
		docs := make([]*schema.Schema, nDocs)
		ix := NewIndex()
		for i := range docs {
			x := ""
			if i == 0 {
				x = extra
			}
			docs[i] = overlapSchema(fmt.Sprintf("d%d", i), next, x)
			ix.Add(docs[i])
		}
		if compact {
			ix.Add(docs[0]) // re-adding replaces: the old document dies
			ix.Compact()
		}

		unseen := unseenToken()
		q := overlapSchema("query", next, "")
		q.AddElement(q.Roots()[0], unseen, schema.KindColumn, schema.TypeString)
		qset := overlapTokenSet(q)

		hits, _ := ix.SearchSchemaInfo(q, 0, 0)
		if _, ok := text.LookupInterned(unseen); ok {
			t.Fatalf("searching interned the query token %q", unseen)
		}
		got := make(map[string]float64, len(hits))
		for _, h := range hits {
			got[h.Schema] = h.Overlap
		}
		for _, d := range docs {
			want, inter := referenceOverlap(qset, overlapTokenSet(d))
			ov, hit := got[d.Name]
			switch {
			case inter == 0 && hit:
				t.Errorf("%s shares no token with the query but is a hit (overlap %v)", d.Name, ov)
			case inter > 0 && !hit:
				t.Errorf("%s shares %d tokens with the query but is not a hit", d.Name, inter)
			case hit && ov != want:
				t.Errorf("%s: index overlap %v, reference %v (query %v, doc %v)",
					d.Name, ov, want, qset, overlapTokenSet(d))
			}
		}
	})
}
