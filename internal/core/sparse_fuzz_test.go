package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"harmony/internal/schema"
)

// fuzzWords are the name and documentation words fuzzed schemata draw
// from: distinct tokens with a shared 4-byte prefix (quark, quartz,
// quarter), words that stem alike (custom, customer, customs), acronyms
// the abbreviation table expands (dtg) and ones only the acronym
// families can match (zqv for zebra quark vortex), abbreviations (nbr,
// addr), non-ASCII letters and a NUL byte.
var fuzzWords = []string{
	"customer", "custom", "customs", "cust", "order", "orders", "date",
	"time", "group", "dtg", "DTG", "id", "number", "nbr", "amount",
	"address", "addr", "status", "Größe", "naïve", "日付", "ab\x00cd",
	"zebra", "quark", "vortex", "zqv", "quartz", "quarter",
}

// fuzzRunes are the characters of a fuzzed name fragment: ASCII,
// multi-byte letters, a digit and a NUL byte.
var fuzzRunes = []string{"a", "b", "x", "é", "ß", "日", "7", "\x00"}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes struct{ data []byte }

func (f *fuzzBytes) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return int(b)
}

// fuzzName builds a name of 1 to 4 parts joined by a separator; a part
// is a vocabulary word, repeated parts included, or a fragment of
// fuzzRunes.
func (f *fuzzBytes) fuzzName() string {
	seps := []string{"_", "", "-", "\x00", " "}
	sep := seps[f.next()%len(seps)]
	parts := 1 + f.next()%4
	name := ""
	for p := 0; p < parts; p++ {
		if p > 0 {
			name += sep
		}
		b := f.next()
		if b < 0xc0 {
			name += fuzzWords[b%len(fuzzWords)]
			continue
		}
		for n := 1 + b%6; n > 0; n-- {
			name += fuzzRunes[f.next()%len(fuzzRunes)]
		}
	}
	return name
}

// fuzzSchema builds a schema of up to maxElems elements; each element
// hangs under any earlier one or starts a new root, and about half carry
// a documentation string of up to 15 vocabulary words, enough for ties
// at the top-term cut.
func (f *fuzzBytes) fuzzSchema(name string, maxElems int) *schema.Schema {
	s := schema.New(name, schema.FormatXML)
	n := 1 + f.next()%maxElems
	for i := 0; i < n; i++ {
		var parent *schema.Element
		if p := f.next() % (s.Len() + 1); p < s.Len() {
			parent = s.Element(p)
		}
		var el *schema.Element
		if parent == nil {
			el = s.AddRoot(f.fuzzName(), schema.KindComplexType)
		} else {
			el = s.AddElement(parent, f.fuzzName(), schema.KindXMLElement, schema.TypeString)
		}
		if d := f.next(); d%2 == 1 {
			for w := 1 + d%15; w > 0; w-- {
				el.Doc += fuzzWords[f.next()%len(fuzzWords)] + " "
			}
		}
	}
	return s
}

// refAlignTotals is the reference of sparseCandidates' alignment totals:
// for every container row, each candidate's summed children-alignment
// similarity in alignment order (0 for a leaf target); nil for leaf and
// empty rows.
func refAlignTotals(sv, dv *SchemaView, cands [][]int32) [][]float64 {
	out := make([][]float64, len(cands))
	for i, row := range cands {
		av := sv.View(i)
		if len(av.children) == 0 || len(row) == 0 {
			continue
		}
		out[i] = make([]float64, len(row))
		for k, j := range row {
			refGreedyAlignChildren(av, dv.View(int(j)), func(_, _ int, sim float64) { out[i][k] += sim })
		}
	}
	return out
}

// FuzzSparseCandidates differentially checks candidate generation
// against the string-keyed serial reference (kernel_ref_test.go): two
// schemata whose names, docs and tree shapes come from the fuzz input,
// a budget of 1 to 8 so the top-budget selection runs, and every row's
// retrieval scores, candidates and alignment totals bit for bit, at 1
// and 3 workers, unscoped and under a scope drawn from the input. The
// scores pin the key order, which the candidate sets show only on a tie.
// The seed corpus lives under testdata/fuzz/FuzzSparseCandidates. Run it
// with
//
//	go test -run '^$' -fuzz FuzzSparseCandidates -fuzztime=10s ./internal/core
func FuzzSparseCandidates(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		budget := 1 + in.next()%8
		a, b := in.fuzzSchema("A", 24), in.fuzzSchema("B", 24)
		scope := make([]bool, a.Len())
		for i := range scope {
			scope[i] = in.next()%3 != 0
		}
		sv, dv := pairViews(a, b)
		checkRetrievalScores(t, sv, dv)
		for _, sc := range [][]bool{nil, scope} {
			want := refSparseCandidates(sv, dv, budget, sc)
			wantAlign := refAlignTotals(sv, dv, want)
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("budget %d, %d workers, scoped %v", budget, workers, sc != nil)
				eng := sparseTestEngine(budget).WithOptions(WithWorkers(workers))
				got, align := eng.sparseCandidates(sv, dv, sc)
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%s: row %d (%q) candidates %v, reference %v", label, i, a.Element(i).Name, got[i], want[i])
					}
					if len(align[i]) != len(wantAlign[i]) {
						t.Fatalf("%s: row %d has %d alignment totals, reference %d", label, i, len(align[i]), len(wantAlign[i]))
					}
					for k, w := range wantAlign[i] {
						if math.Float64bits(align[i][k]) != math.Float64bits(w) {
							t.Fatalf("%s: row %d total %d = %v, reference %v", label, i, k, align[i][k], w)
						}
					}
				}
			}
		}
	})
}

// checkRetrievalScores compares every row's accumulated retrieval scores
// with the reference's: the same targets touched in the same order, and
// the same score bits.
func checkRetrievalScores(t *testing.T, sv, dv *SchemaView) {
	t.Helper()
	ix := refBuildSparseIndex(dv)
	want := make([]float64, dv.Len())
	var touched []int32
	var keys []string
	r := retriever{ix: buildSparseIndex(dv), src: sv.profile.sparseKeys(), acc: make([]float64, dv.Len())}
	for i := 0; i < sv.Len(); i++ {
		touched, keys = refAccumulate(ix, sv.View(i), sv.docs[i], want, touched[:0], keys)
		r.accumulate(i, sv.View(i), sv.docs[i])
		if !slices.Equal(r.touched, touched) {
			t.Fatalf("row %d touched %v, reference %v", i, r.touched, touched)
		}
		for _, j := range touched {
			if math.Float64bits(r.acc[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d target %d scored %v, reference %v", i, j, r.acc[j], want[j])
			}
			r.acc[j], want[j] = 0, 0
		}
		r.touched = r.touched[:0]
	}
}
