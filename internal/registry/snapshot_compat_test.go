package registry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

// snapshotFixture is a small snapshot written by SnapshotView.Encode:
// version chains (one schema at version 3), stewards, tags, fixed
// registration times and match artifacts, one composed through a hub
// (via=<hub> provenance). Regenerate it — only when the encoder's output
// is meant to change — with
//
//	go test ./internal/registry -run TestSnapshotFixtureCompat -write-snapshot-fixture
var snapshotFixture = filepath.Join("testdata", "snapshot-compat.json")

var writeSnapshotFixture = flag.Bool("write-snapshot-fixture", false, "rewrite testdata/snapshot-compat.json")

// fixtureRegistry builds the registry the fixture serializes.
func fixtureRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	clock := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	r.now = func() time.Time {
		clock = clock.Add(90 * time.Second)
		return clock
	}
	schemas, _, _ := synth.Collection(21, 3, 3)
	for i, s := range schemas {
		if err := r.AddSchema(s, fmt.Sprintf("steward-%d", i%2), "domain", fmt.Sprintf("batch-%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	// Two bumps of one schema and one of another: chains of 3 and 2.
	for _, name := range []string{schemas[0].Name, schemas[0].Name, schemas[4].Name} {
		e, _ := r.Schema(name)
		next := cloneSchema(t, e.Schema)
		next.AddElement(next.Roots()[0], fmt.Sprintf("Added_%d", e.Version), schema.KindColumn, schema.TypeString)
		if _, err := r.AddVersion(next, "steward-evolve", "evolved"); err != nil {
			t.Fatal(err)
		}
	}
	pairs := func(a, b string, n int, note string) []AssertedMatch {
		ea, _ := r.Schema(a)
		eb, _ := r.Schema(b)
		var out []AssertedMatch
		for i := 0; i < n; i++ {
			out = append(out, AssertedMatch{
				PathA: ea.Schema.Elements()[i].Path(), PathB: eb.Schema.Elements()[i].Path(),
				Score: 0.5 + float64(i)/20, Status: []ValidationStatus{StatusProposed, StatusAccepted, StatusRejected}[i%3],
				Annotation: AnnEquivalent, ValidatedBy: "analyst", Note: note,
			})
		}
		return out
	}
	hub := schemas[1].Name
	for _, ma := range []MatchArtifact{
		{SchemaA: schemas[0].Name, SchemaB: hub, Context: ContextIntegration,
			Provenance: Provenance{CreatedBy: "analyst", Tool: "harmony"}, Pairs: pairs(schemas[0].Name, hub, 4, "")},
		{SchemaA: hub, SchemaB: schemas[2].Name, Context: ContextPlanning,
			Provenance: Provenance{CreatedBy: "analyst", Tool: "harmony"}, Pairs: pairs(hub, schemas[2].Name, 3, "migrated-from=old/path")},
		{SchemaA: schemas[0].Name, SchemaB: schemas[2].Name, Context: ContextSearch,
			Provenance: Provenance{Tool: "harmony-corpus", Notes: "via=" + hub}, Pairs: pairs(schemas[0].Name, schemas[2].Name, 2, "")},
	} {
		if _, err := r.AddMatch(ma); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func cloneSchema(t *testing.T, s *schema.Schema) *schema.Schema {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	c, err := schema.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceDecode is DecodeSnapshot as it was before snapshots were
// admitted in one batch: one json.Unmarshal of the envelope, then
// AddSchema per current version with its time and version restored.
func referenceDecode(data []byte) (*Registry, error) {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	r := New()
	for _, pe := range p.Schemas {
		s, err := schema.ParseJSON(pe.Schema)
		if err != nil {
			return nil, err
		}
		if err := r.AddSchema(s, pe.Steward, pe.Tags...); err != nil {
			return nil, err
		}
		r.entries[s.Name].Registered = pe.Registered
		if pe.Version > 1 {
			r.entries[s.Name].Version = pe.Version
		}
	}
	for _, pe := range p.History {
		s, err := schema.ParseJSON(pe.Schema)
		if err != nil {
			return nil, err
		}
		r.history[s.Name] = append(r.history[s.Name], &Entry{
			Schema: s, Steward: pe.Steward, Tags: pe.Tags, Registered: pe.Registered,
			Stats: s.ComputeStats(), Fingerprint: s.Fingerprint(), Version: max(pe.Version, 1),
		})
	}
	for _, chain := range r.history {
		sort.Slice(chain, func(i, j int) bool { return chain[i].Version < chain[j].Version })
	}
	for _, pa := range p.Matches {
		r.putMatchLocked(&MatchArtifact{
			ID: pa.ID, SchemaA: pa.SchemaA, SchemaB: pa.SchemaB,
			Context: pa.Context, Provenance: pa.Provenance, Pairs: pa.Pairs,
		})
	}
	r.nextID = p.NextID
	return r, nil
}

// registryDigest renders everything a decode restores, schema content
// included, for comparison.
func registryDigest(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	entry := func(e *Entry) {
		js, err := json.Marshal(e.Schema)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s v%d steward=%q tags=%q registered=%s stats=%+v fp=%s\n%s\n",
			e.Schema.Name, e.Version, e.Steward, e.Tags, e.Registered.Format(time.RFC3339Nano), e.Stats, e.Fingerprint, js)
	}
	for _, e := range r.Schemas() {
		for _, v := range r.Versions(e.Schema.Name) {
			entry(v)
		}
	}
	for _, ma := range r.Matches() {
		fmt.Fprintf(&b, "%+v\n", *ma)
	}
	fmt.Fprintf(&b, "nextID=%d\n", r.nextID)
	return b.String()
}

func TestSnapshotFixtureCompat(t *testing.T) {
	if *writeSnapshotFixture {
		data, err := fixtureRegistry(t).SnapshotView(nil).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotFixture, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(snapshotFixture)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceDecode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	got.CompactIndex()
	if want, have := registryDigest(t, ref), registryDigest(t, got); want != have {
		t.Fatalf("decode differs from the reference AddSchema loop:\n--- reference\n%s\n--- decode\n%s", want, have)
	}
	// The fixture must exercise what it claims to.
	if len(ref.Versions(ref.Schemas()[0].Schema.Name)) == 0 || ref.MatchCount() != 3 || len(ref.history) != 2 {
		t.Fatalf("fixture lost its shape: %d artifacts, %d chains", ref.MatchCount(), len(ref.history))
	}
	if !bytes.Contains(data, []byte(`via=`)) || !bytes.Contains(data, []byte(`"version":3`)) {
		t.Fatal("fixture lacks a via=<hub> artifact or a version-3 entry")
	}

	if st := got.IndexStats(); st.TailSchemas != 0 || st.TailFragments != 0 || st.FlatSchemas != got.Len() {
		t.Fatalf("compacted decode left tail documents: %+v", st)
	}
	same := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: reference %v, decode %v", what, a, b)
		}
	}
	for _, e := range ref.Schemas() {
		same("SearchSchema "+e.Schema.Name, ref.SearchSchema(e.Schema, 0), got.SearchSchema(e.Schema, 0))
	}
	for _, q := range []string{"customer order", "patient blood test", "account identifier date", "added"} {
		same("SearchText "+q, ref.SearchText(q, 0), got.SearchText(q, 0))
		same("SearchFragments "+q, ref.SearchFragments(q, 0), got.SearchFragments(q, 0))
	}

	// ResetTo over a registry with other contents lands on the same state
	// and index.
	reset := fixtureRegistry(t)
	if err := reset.AddSchema(testSchema("stale", "id"), ""); err != nil {
		t.Fatal(err)
	}
	if err := reset.ResetTo(data); err != nil {
		t.Fatal(err)
	}
	if want, have := registryDigest(t, ref), registryDigest(t, reset); want != have {
		t.Fatalf("ResetTo differs from the reference:\n--- reference\n%s\n--- reset\n%s", want, have)
	}
	if st := reset.IndexStats(); st.TailSchemas != 0 || st.TailFragments != 0 || st.Schemas != ref.Len() || st.DeadSchemas != 0 {
		t.Fatalf("ResetTo left the index unbuilt or stale: %+v", st)
	}
	same("SearchText after ResetTo", ref.SearchText("customer order", 0), reset.SearchText("customer order", 0))
}

// corruptSnapshots derives the three damaged snapshots a restart must
// refuse from a valid one: cut inside a schema, a metadata field of the
// wrong type, and invalid JSON inside a schema's own bytes.
func corruptSnapshots(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	at := bytes.Index(data, []byte(`"elements"`))
	colon := bytes.Index(data, []byte(`"name":`))
	reg := bytes.Index(data, []byte(`"registered":"`))
	if at < 0 || colon < 0 || reg < 0 {
		t.Fatal("snapshot lacks the fields the corruptions target")
	}
	timeEnd := reg + len(`"registered":"`)
	timeEnd += bytes.IndexByte(data[timeEnd:], '"') + 1
	badField := slices.Concat(data[:reg+len(`"registered":`)], []byte(`17`), data[timeEnd:])
	badSchema := bytes.Clone(data)
	badSchema[colon+len(`"name"`)] = ' ' // "name" "x": the colon is gone
	return map[string][]byte{
		"cut mid-schema":       bytes.Clone(data[:at+20]),
		"bad envelope field":   badField,
		"invalid schema bytes": badSchema,
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	data, err := os.ReadFile(snapshotFixture)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range corruptSnapshots(t, data) {
		if json.Valid(bad) && name != "bad envelope field" {
			t.Fatalf("%s: the corrupted snapshot is still valid JSON", name)
		}
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("%s: DecodeSnapshot accepted it", name)
		}
		r := fixtureRegistry(t)
		before := registryDigest(t, r)
		if err := r.ResetTo(bad); err == nil {
			t.Errorf("%s: ResetTo accepted it", name)
		}
		if after := registryDigest(t, r); after != before {
			t.Errorf("%s: a rejected ResetTo changed the registry", name)
		}
	}
}

// TestSnapshotDecodeMatchesEncodingJSON checks that the envelope scanner
// with its encoding/json fallback accepts exactly what the encoding/json
// reference decoder accepts, with the same content: on
// envelopes the encoder never writes (trailing data, repeated, unknown,
// case-variant or escaped keys, repeated keys whose first value is
// malformed, null sections, escaped strings), then on the fixture mutated
// byte by byte.
func TestSnapshotDecodeMatchesEncodingJSON(t *testing.T) {
	data, err := os.ReadFile(snapshotFixture)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	check := func(name string, in []byte) {
		t.Helper()
		got, gotErr := DecodeSnapshot(in)
		ref, refErr := referenceDecode(in)
		switch {
		case refErr == nil && gotErr != nil:
			t.Fatalf("%s: rejected what encoding/json accepts: %v", name, gotErr)
		case refErr != nil && gotErr == nil:
			t.Fatalf("%s: accepted what encoding/json rejects (%v)", name, refErr)
		case refErr == nil:
			if registryDigest(t, ref) != registryDigest(t, got) {
				t.Fatalf("%s: decoded differently from encoding/json", name)
			}
			accepted++
		}
	}
	first := bytes.Index(data, []byte(`"steward":"`))
	edits := map[string][]byte{
		"trailing data":  append(bytes.Clone(data), " x"...),
		"trailing space": append(bytes.Clone(data), " \n"...),
		"repeated section": bytes.Replace(data, []byte(`{"schemas":[`), []byte(`{"schemas":[{"schema":{"name":"Ghost","format":"relational",`+
			`"elements":[{"name":"G","kind":"table","children":[{"name":"ID","kind":"column","type":"string"}]}]}}],"schemas":[`), 1),
		"repeated field":                   bytes.Replace(data, []byte(`"steward":`), []byte(`"steward":"first","steward":`), 1),
		"repeated field, first malformed":  bytes.Replace(data, []byte(`"steward":`), []byte(`"steward":tru,"steward":`), 1),
		"repeated schema":                  bytes.Replace(data, []byte(`"schema":`), []byte(`"schema":{"name":"Ghost"},"schema":`), 1),
		"repeated schema, first malformed": bytes.Replace(data, []byte(`"schema":`), []byte(`"schema":{"name":},"schema":`), 1),
		"repeated nextId, first malformed": bytes.Replace(data, []byte(`"nextId":`), []byte(`"nextId":1.2.3,"nextId":`), 1),
		"unknown key":                      bytes.Replace(data, []byte(`{"schemas":`), []byte(`{"extra":[1,{"a":"}"}],"schemas":`), 1),
		"case-variant key":                 bytes.Replace(data, []byte(`"nextId":`), []byte(`"NextID":`), 1),
		"escaped key":                      bytes.Replace(data, []byte(`"steward":`), []byte(`"stew\u0061rd":`), 1),
		"null sections":                    []byte(`{"schemas":null,"matches":null,"nextId":0,"history":null}`),
		"escaped quote":                    slices.Concat(data[:first+len(`"steward":"`)], []byte(`q\"\\`), data[first+len(`"steward":"`):]),
		"escaped quote in schema":          bytes.Replace(data, []byte(`"doc":"`), []byte(`"doc":"say \"}]\" `), 1),
		"whitespace":                       bytes.ReplaceAll(data, []byte(`,"`), []byte(" ,\n\t\"")),
		"empty":                            nil,
		"nested entry array":               bytes.Replace(data, []byte(`"schemas":[`), []byte(`"schemas":[[],`), 1),
	}
	for name, in := range edits {
		check(name, in)
	}
	// The encoder's own output, escapes included, must be scanned
	// without falling back to encoding/json.
	for _, name := range []string{"escaped quote", "escaped quote in schema", "whitespace", "trailing space"} {
		if err := scanEnvelope(edits[name], func(bool, *decodedEntry) {}, &snapshotContent{}); err != nil {
			t.Errorf("%s: the scanner fell back: %v", name, err)
		}
	}

	rng := rand.New(rand.NewSource(5))
	alphabet := []byte(`{}[]":,\ 0123456789abcnrtuel-.`)
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		bad := bytes.Clone(data)
		i := rng.Intn(len(bad))
		switch c := alphabet[rng.Intn(len(alphabet))]; trial % 3 {
		case 0:
			bad[i] = c
		case 1:
			bad = append(bad[:i], bad[i+1:]...)
		default:
			bad = slices.Insert(bad, i, c)
		}
		check(fmt.Sprintf("trial %d", trial), bad)
	}
	t.Logf("%d of %d edited snapshots decode; the rest are rejected by both decoders", accepted, len(edits)+trials)
}
