package registry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestMarshalOpsDifferential pins the fast op serializer's contract:
// whatever it emits, json.Unmarshal must decode to the same ops that
// decoding encoding/json's own output yields.
func TestMarshalOpsDifferential(t *testing.T) {
	reg := time.Date(2026, 8, 8, 12, 34, 56, 789000000, time.UTC)
	cases := [][]Op{
		{},
		{{Kind: OpSchemaAdd, Schema: json.RawMessage(`{"name":"s","elements":[]}`), Steward: "team-a", Registered: reg, Version: 1}},
		{{Kind: OpSchemaAdd, Schema: json.RawMessage(`{"name":"s"}`), Tags: []string{"x", "y z", `q"uote`}, Registered: reg, Version: 1}},
		{{Kind: OpSchemaDelete, Name: "victim"}},
		{{Kind: OpSchemaVersion, Schema: json.RawMessage(` {"name":"padded"} `), Steward: "a\\b\n\t\x01", Registered: reg, Version: 7}},
		{
			{Kind: OpSchemaAdd, Schema: json.RawMessage(`{"name":"a"}`), Registered: reg, Version: 1},
			{Kind: OpSchemaAdd, Schema: json.RawMessage(`{"name":"b"}`), Registered: reg.In(time.FixedZone("X", 3600)), Version: 1},
			{Kind: OpSchemaDelete, Name: "a"},
		},
		// Artifact op: exercises the per-op fallback inside a batch.
		{
			{Kind: OpMatchAdd, Artifact: &MatchArtifact{ID: "m3", SchemaA: "a", SchemaB: "b"}},
			{Kind: OpSchemaAdd, Schema: json.RawMessage(`{"name":"c"}`), Registered: reg, Version: 1},
		},
		// Non-UTF-8 steward: fallback path, std rewrites to U+FFFD.
		{{Kind: OpSchemaAdd, Schema: json.RawMessage(`{"name":"s"}`), Steward: "bad\xffbyte", Registered: reg, Version: 1}},
	}
	for ci, ops := range cases {
		diffMarshalOps(t, fmt.Sprintf("case %d", ci), ops)
	}
}

// diffMarshalOps fails t unless decoding MarshalOps' output yields the
// same ops as decoding encoding/json's output for the same input.
func diffMarshalOps(t *testing.T, label string, ops []Op) {
	t.Helper()
	fast, err := MarshalOps(ops)
	if err != nil {
		t.Fatalf("%s: MarshalOps: %v", label, err)
	}
	std, err := json.Marshal(ops)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", label, err)
	}
	var fromFast, fromStd []Op
	if err := json.Unmarshal(fast, &fromFast); err != nil {
		t.Fatalf("%s: fast output does not decode: %v\n%s", label, err, fast)
	}
	if err := json.Unmarshal(std, &fromStd); err != nil {
		t.Fatalf("%s: std output does not decode: %v", label, err)
	}
	if len(fromFast) != len(fromStd) {
		t.Fatalf("%s: length diverges: %d vs %d", label, len(fromFast), len(fromStd))
	}
	for i := range fromFast {
		f, s := fromFast[i], fromStd[i]
		// RawMessage bytes may legitimately differ (fast keeps the
		// original whitespace, std compacts); compare their decoded
		// values instead.
		var fs, ss any
		if len(f.Schema) > 0 {
			if err := json.Unmarshal(f.Schema, &fs); err != nil {
				t.Fatalf("%s op %d: fast schema payload invalid: %v", label, i, err)
			}
		}
		if len(s.Schema) > 0 {
			_ = json.Unmarshal(s.Schema, &ss)
		}
		if !reflect.DeepEqual(fs, ss) {
			t.Fatalf("%s op %d: schema payload diverges:\nfast: %s\nstd:  %s", label, i, f.Schema, s.Schema)
		}
		f.Schema, s.Schema = nil, nil
		if !f.Registered.Equal(s.Registered) {
			t.Fatalf("%s op %d: registered diverges: %v vs %v", label, i, f.Registered, s.Registered)
		}
		f.Registered, s.Registered = time.Time{}, time.Time{}
		if !reflect.DeepEqual(f, s) {
			t.Fatalf("%s op %d: op diverges:\nfast: %+v\nstd:  %+v", label, i, f, s)
		}
	}
}

// FuzzMarshalOps widens the differential check to arbitrary strings and
// versions: every WAL record the registry journals goes through
// MarshalOps, so any input where its output decodes differently from
// encoding/json's is a bug. The fuzzed steward, tag, name and version
// fill a schema-add, a schema-version, a schema-delete and a match-add
// op (the last takes the per-op fallback inside the batch). The seed
// corpus under testdata/fuzz/FuzzMarshalOps holds the
// TestMarshalOpsDifferential cases. Run it with
//
//	go test -run '^$' -fuzz FuzzMarshalOps -fuzztime=10s ./internal/registry
func FuzzMarshalOps(f *testing.F) {
	reg := time.Date(2026, 8, 8, 12, 34, 56, 789000000, time.UTC)
	f.Fuzz(func(t *testing.T, steward, tag, name string, version int) {
		// json.Marshal yields valid JSON for any name, as the raw schema
		// payload's contract requires.
		payload, err := json.Marshal(map[string]string{"name": name})
		if err != nil {
			t.Fatal(err)
		}
		ops := []Op{
			{Kind: OpSchemaAdd, Schema: payload, Steward: steward, Tags: []string{tag}, Registered: reg, Version: version},
			{Kind: OpSchemaVersion, Schema: payload, Steward: steward, Tags: []string{tag, name}, Registered: reg, Version: version + 1},
			{Kind: OpSchemaDelete, Name: name},
			{Kind: OpMatchAdd, Artifact: &MatchArtifact{ID: tag, SchemaA: name, SchemaB: steward}},
		}
		diffMarshalOps(t, "fuzz", ops)
	})
}
