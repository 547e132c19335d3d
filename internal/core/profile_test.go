package core

import (
	"math"
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

		want := plain.Match(sa, sb)
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
						t.Fatalf("%s pass %d: score (%d,%d) = %v through cache, %v without",
							tc.name, pass, i, j, got.Matrix.At(i, j), want.Matrix.At(i, j))
					}
				}
			}
			got.Release()
		}
		want.Release()
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

	sc := &pairScratch{hybrid: make(map[uint64]float64)}
	for _, memo := range []string{"cold", "warm"} {
		for i := range pa.tmpl {
			for j := range pb.tmpl {
				a, b := &pa.tmpl[i], &pb.tmpl[j]
				want := hybridNameSimFlat(a, b)
				if got := hybridSimCached(a, b, sc); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s memo: (%d,%d) = %v, direct compute %v", memo, i, j, got, want)
				}
			}
		}
		if len(sc.hybrid) == 0 {
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
	for i := range p.tmpl {
		names[p.tmpl[i].nameShape] = true
	}
	if len(names) != distinctNames {
		t.Fatalf("profile has %d distinct name shapes, want %d", len(names), distinctNames)
	}
}
