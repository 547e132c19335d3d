package core

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

// TestProfileCacheBitwiseEquality is the central correctness claim of
// the compiled-profile cache: matching through the cache must produce
// bit-identical scores to a cache-less match, on the dense path and on
// the sparse path POST /v1/match runs by default.
func TestProfileCacheBitwiseEquality(t *testing.T) {
	sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 4, 9, 6, 2)
	sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, 4, 9, 6, 5)
	// Sparse scoring engages only when the target side outnumbers the
	// per-source budget, so the sparse input needs a wider target.
	wide, _ := synth.Custom("W", schema.FormatXML, synth.StyleXML, 4, 14, 6, 5)

	for _, tc := range []struct {
		name   string
		sa, sb *schema.Schema
		opts   []Option
	}{
		{"dense", sa, sb, nil},
		{"sparse", sa, wide, []Option{WithSparse(DefaultSparseBudget), WithSparseCutoff(1)}},
	} {
		sa, sb := tc.sa, tc.sb
		plain := PresetHarmony().WithOptions(tc.opts...)
		cached := PresetHarmony().WithOptions(append(tc.opts, WithProfileCache(NewProfileCache(8)))...)

		want := plain.MatchProfiles(CompileSchema(sa), CompileSchema(sb))
		if _, isSparse := want.Matrix.(*SparseMatrix); isSparse != (tc.opts != nil) {
			t.Fatalf("%s: matrix is %T", tc.name, want.Matrix)
		}
		// Three passes: cold (compile on miss), then two profile-cache
		// hits. The pooled name memo is warm from the first pass on. All
		// must agree bitwise.
		for pass := 0; pass < 3; pass++ {
			got := cached.Match(sa, sb)
			for i := 0; i < sa.Len(); i++ {
				for j := 0; j < sb.Len(); j++ {
					if got.Matrix.At(i, j) != want.Matrix.At(i, j) {
						t.Fatalf("%s pass %d: score (%d,%d) = %v through cache, %v from a fresh compile",
							tc.name, pass, i, j, got.Matrix.At(i, j), want.Matrix.At(i, j))
					}
				}
			}
			got.Release()
		}
		want.Release()
	}
}

// TestSharedCacheKeepsCallersElementOrder: equal fingerprints do not
// imply equal element IDs. IDs follow insertion order while the
// fingerprint walks the tree in pre-order, so x and y below share a
// fingerprint but not Element(2). Scored through one shared profile
// cache, each must select the same path pairs, read through the
// caller's own schema, as on a fresh engine.
func TestSharedCacheKeepsCallersElementOrder(t *testing.T) {
	x := schema.New("X", schema.FormatRelational)
	r := x.AddRoot("customer", schema.KindTable)
	x.AddElement(r, "customer_id", schema.KindColumn, schema.TypeString)
	x.AddElement(r, "customer_name", schema.KindColumn, schema.TypeString)
	x.AddRoot("orders", schema.KindTable)
	y := schema.New("Y", schema.FormatRelational)
	r = y.AddRoot("customer", schema.KindTable)
	y.AddElement(r, "customer_id", schema.KindColumn, schema.TypeString)
	y.AddRoot("orders", schema.KindTable)
	y.AddElement(r, "customer_name", schema.KindColumn, schema.TypeString)
	if x.Fingerprint() != y.Fingerprint() || x.Element(2).Path() == y.Element(2).Path() {
		t.Fatalf("fixture: want one fingerprint over two ID orders, got Element(2) %s and %s",
			x.Element(2).Path(), y.Element(2).Path())
	}
	b := schema.New("B", schema.FormatRelational)
	r = b.AddRoot("client", schema.KindTable)
	b.AddElement(r, "client_name", schema.KindColumn, schema.TypeString)
	b.AddElement(r, "client_id", schema.KindColumn, schema.TypeString)
	b.AddRoot("order", schema.KindTable)

	paths := func(eng *Engine, s *schema.Schema) []string {
		res := eng.Match(s, b)
		defer res.Release()
		var out []string
		for _, c := range SelectGreedyOneToOne(res.Matrix, 0.3) {
			out = append(out, s.Element(c.Src).Path()+" -> "+b.Element(c.Dst).Path())
		}
		sort.Strings(out)
		return out
	}
	shared := PresetHarmony().WithOptions(WithProfileCache(NewProfileCache(0)))
	for _, s := range []*schema.Schema{x, y} {
		got, want := paths(shared, s), paths(PresetHarmony(), s)
		if len(want) == 0 {
			t.Fatalf("%s: fresh engine selected nothing", s.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s through the shared cache selected %v, a fresh engine %v", s.Name, got, want)
		}
	}
}

// TestProfileCacheServesOnlyItsSchema: an entry serves the schema object
// it was compiled from; another object with the same content misses and
// compiles its own entry, and the two then hit side by side. Get serves
// the more recently used of the two.
func TestProfileCacheServesOnlyItsSchema(t *testing.T) {
	a, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 3, 4, 3, 0)
	a2, _ := synth.Custom("A2", schema.FormatRelational, synth.StyleRelational, 3, 4, 3, 0)
	if a.Fingerprint() != a2.Fingerprint() {
		t.Fatal("fixture: A and A2 must share a fingerprint")
	}
	pc := NewProfileCache(0)
	for i, s := range []*schema.Schema{a, a, a2, a2, a} {
		if p := pc.Profile(s); p.Schema != s {
			t.Fatalf("lookup %d: profile of %q served for %q", i, p.Schema.Name, s.Name)
		}
	}
	if st := pc.Stats(); st.Hits != 3 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats %+v, want 3 hits, 2 misses, 2 entries", st)
	}
	if p, ok := pc.Get(a.Fingerprint()); !ok || p.Schema != a {
		t.Fatal("Get does not return the most recently used entry")
	}
	pc.Profile(a2)
	if p, ok := pc.Get(a.Fingerprint()); !ok || p.Schema != a2 {
		t.Fatal("Get does not follow the most recent use")
	}
	if !pc.InvalidateFingerprint(a.Fingerprint()) || pc.Len() != 0 {
		t.Fatalf("invalidating the shared fingerprint left %d entries", pc.Len())
	}
	if st := pc.Stats(); st.Invalidations != 2 {
		t.Fatalf("stats %+v, want 2 invalidations", st)
	}
}

// TestProfileCacheMissesOnChangedSchema: a schema changed in place after
// compiling no longer hits its entry; the recompile replaces the entry,
// and the old fingerprint no longer finds it.
func TestProfileCacheMissesOnChangedSchema(t *testing.T) {
	s, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 3, 4, 3, 0)
	pc := NewProfileCache(0)
	old := pc.Profile(s)
	oldFP := s.Fingerprint()
	s.Elements()[1].Name = "renamed_in_place"
	p := pc.Profile(s)
	if p == old || p.Fingerprint() != s.Fingerprint() {
		t.Fatal("a schema changed in place was served its stale profile")
	}
	if st := pc.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats %+v, want 2 misses, 1 entry", st)
	}
	if _, ok := pc.Get(oldFP); ok {
		t.Fatal("the replaced entry is still found by its old fingerprint")
	}
	if got := pc.Profile(s); got != p {
		t.Fatal("the recompiled entry does not hit")
	}
}

// TestPairingsShareProfileViews: a pairing hands out its profile's own
// element views, so two pairings of one profile return the same view
// pointers, and the parent a leaf's view links to is the view the
// pairing returns for the parent element.
func TestPairingsShareProfileViews(t *testing.T) {
	a, b := personSchemaA(), personSchemaB()
	pa := CompileSchema(a)
	sv1, _ := PairProfiles(pa, CompileSchema(b))
	sv2, _ := PairProfiles(pa, CompileSchema(a))
	for i := 0; i < a.Len(); i++ {
		if sv1.View(i) != sv2.View(i) {
			t.Fatalf("element %d: two pairings of one profile return different views", i)
		}
	}
	leaf := a.ByPath("Person/LAST_NAME")
	if got, want := sv1.View(leaf.ID).parent, sv1.View(leaf.Parent.ID); got != want {
		t.Fatal("a leaf's parent link is not the pairing's view of its parent")
	}
}

// TestProfileEncodeDecodeRoundTrip verifies that a profile decoded from
// its store-artifact blob scores identically to a freshly compiled one.
func TestProfileEncodeDecodeRoundTrip(t *testing.T) {
	sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 3, 8, 6, 1)
	sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, 3, 8, 6, 3)

	pa := CompileSchema(sa)
	decoded, err := DecodeProfile(sa, pa.Encode())
	if err != nil {
		t.Fatal(err)
	}

	eng := PresetHarmony()
	want := eng.MatchProfiles(pa, CompileSchema(sb))
	got := eng.MatchProfiles(decoded, CompileSchema(sb))
	for i := 0; i < sa.Len(); i++ {
		for j := 0; j < sb.Len(); j++ {
			if got.Matrix.At(i, j) != want.Matrix.At(i, j) {
				t.Fatalf("score (%d,%d) = %v from decoded profile, %v from compiled",
					i, j, got.Matrix.At(i, j), want.Matrix.At(i, j))
			}
		}
	}
	want.Release()
	got.Release()
}

func TestDecodeProfileRejectsMismatches(t *testing.T) {
	sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 3, 8, 6, 1)
	sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, 3, 8, 6, 3)
	blob := CompileSchema(sa).Encode()

	if _, err := DecodeProfile(sb, blob); err == nil {
		t.Error("decode against a different schema should fail the fingerprint check")
	}
	if _, err := DecodeProfile(sa, []byte(`{"v":99}`)); err == nil {
		t.Error("decode of an unknown blob version should fail")
	}
	if _, err := DecodeProfile(sa, []byte(`not json`)); err == nil {
		t.Error("decode of a corrupt blob should fail")
	}
	mangled := strings.Replace(string(blob), `"v":1`, `"v":2`, 1)
	if _, err := DecodeProfile(sa, []byte(mangled)); err == nil {
		t.Error("decode of a future blob version should fail")
	}
}

func TestProfileCacheLRUEvictionAndInvalidation(t *testing.T) {
	pc := NewProfileCache(2)
	mk := func(name string, seed int) *schema.Schema {
		s, _ := synth.Custom(name, schema.FormatRelational, synth.StyleRelational, 2, 5, 4, seed)
		return s
	}
	s1, s2, s3 := mk("S1", 1), mk("S2", 2), mk("S3", 3)

	p1 := pc.Profile(s1)
	pc.Profile(s2)
	if got := pc.Profile(s1); got != p1 {
		t.Error("second Profile call should return the cached pointer")
	}
	// s1 was just touched, so inserting s3 must evict s2 (LRU).
	pc.Profile(s3)
	if _, ok := pc.Get(s2.Fingerprint()); ok {
		t.Error("s2 should have been evicted as least recently used")
	}
	if _, ok := pc.Get(s1.Fingerprint()); !ok {
		t.Error("s1 should have survived the eviction")
	}

	if !pc.InvalidateFingerprint(s1.Fingerprint()) {
		t.Error("invalidating a cached fingerprint should report true")
	}
	if pc.InvalidateFingerprint(s1.Fingerprint()) {
		t.Error("invalidating a missing fingerprint should report false")
	}
	if _, ok := pc.Get(s1.Fingerprint()); ok {
		t.Error("invalidated profile still served")
	}

	st := pc.Stats()
	if st.Evictions == 0 || st.Invalidations != 1 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want >=1 eviction, 1 invalidation, capacity 2", st)
	}
}

// TestHybridSimCachedMatchesDirectCompute checks the per-worker name
// memo against the direct metric for every element pair of two compiled
// profiles, bit for bit, once with a cold memo and once with the memo
// the first sweep filled.
func TestHybridSimCachedMatchesDirectCompute(t *testing.T) {
	sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 3, 8, 6, 2)
	sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, 3, 8, 6, 4)
	pa, pb := CompileSchema(sa), CompileSchema(sb)

	sc := &pairScratch{}
	for _, memo := range []string{"cold", "warm"} {
		for i := range pa.views {
			for j := range pb.views {
				a, b := &pa.views[i], &pb.views[j]
				want := hybridNameSimFlat(a, b)
				if got := hybridSimCached(a, b, sc); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s memo: (%d,%d) = %v, direct compute %v", memo, i, j, got, want)
				}
			}
		}
		if sc.hybrid.n == 0 {
			t.Fatalf("%s sweep left the memo empty", memo)
		}
	}
}

// shapeTag returns a lower-case token no earlier call returned, so each
// run of a test interns names no other test has seen.
var shapeTagN int

func shapeTag() string {
	shapeTagN++
	tag := []byte("shapetag")
	for n := shapeTagN; n > 0; n /= 26 {
		tag = append(tag, byte('a'+n%26))
	}
	return string(tag)
}

func shapeCount() int {
	shapes.mu.RLock()
	defer shapes.mu.RUnlock()
	return len(shapes.m)
}

// TestShapeTableGrowsWithNamesOnly pins what compilation adds to the
// process-wide shape table: one shape per new distinct name token
// sequence, and nothing for paths. Element paths are nearly unique, so
// interning them would grow the table with every schema compiled.
func TestShapeTableGrowsWithNamesOnly(t *testing.T) {
	tag := shapeTag()
	s := schema.New("shapes", schema.FormatXML)
	for _, root := range []string{"alpha", "beta", "gamma"} {
		r := s.AddRoot(tag+root, schema.KindComplexType)
		g := s.AddElement(r, tag+"detail", schema.KindXMLElement, schema.TypeNone)
		for _, leaf := range []string{"one", "two"} {
			s.AddElement(g, tag+leaf, schema.KindXMLElement, schema.TypeString)
		}
	}
	// 12 elements with 12 distinct paths, but only 6 distinct names:
	// three roots, "detail", "one" and "two".
	const distinctNames = 6

	before := shapeCount()
	p := CompileSchema(s)
	if grown := shapeCount() - before; grown != distinctNames {
		t.Fatalf("compiling %d elements grew the shape table by %d, want %d (one per distinct name)",
			p.Len(), grown, distinctNames)
	}
	names := make(map[int32]bool)
	for i := range p.views {
		names[p.views[i].nameShape] = true
	}
	if len(names) != distinctNames {
		t.Fatalf("profile has %d distinct name shapes, want %d", len(names), distinctNames)
	}
}
