package repl

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"testing"

	"harmony/internal/registry"
)

// FuzzFollowerApply treats its input as the body of a PathWAL response
// and runs it through a memory-only follower's apply path: the body's
// JSON decode, verifyRecord, the op decode and Registry.Apply. Shipped
// payloads carry CRCs a mutator rarely keeps right, so each body also
// runs a second time with every record's CRC recomputed, which lets
// arbitrary ops reach Registry.Apply. Neither run may panic. The applied
// LSN advances one record at a time and only through records that verify
// and whose ops decode and apply on a registry that replayed the same
// prefix. A batch that applies whole leaves the follower's registry equal
// to that replay.
func FuzzFollowerApply(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"records":[],"leaderLSN":3,"durableLSN":3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp WALResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return
		}
		checkFollowerApply(t, &resp)
		for i := range resp.Records {
			resp.Records[i].CRC = crc32.Checksum(resp.Records[i].Payload, crcTable)
		}
		checkFollowerApply(t, &resp)
	})
}

// checkFollowerApply applies one decoded batch on a fresh memory-only
// follower and checks the applied prefix against a plain replay.
func checkFollowerApply(t *testing.T, resp *WALResponse) {
	t.Helper()
	reg := registry.New()
	fl := &Follower{opts: Options{Registry: reg, Logf: func(string, ...any) {}}}
	err := fl.apply(resp)
	st := fl.Stats()
	applied := st.AppliedLSN
	if applied > uint64(len(resp.Records)) || st.RecordsApplied != applied {
		t.Fatalf("applied LSN %d after %d records applied, batch of %d", applied, st.RecordsApplied, len(resp.Records))
	}
	if (err == nil) != (applied == uint64(len(resp.Records))) {
		t.Fatalf("apply returned %v with %d of %d records applied", err, applied, len(resp.Records))
	}
	ref := registry.New()
	for i, rec := range resp.Records[:applied] {
		if err := verifyRecord(rec, uint64(i)); err != nil {
			t.Fatalf("applied a record that does not verify: %v", err)
		}
		var ops []registry.Op
		if err := json.Unmarshal(rec.Payload, &ops); err != nil {
			t.Fatalf("applied record %d whose ops do not decode: %v", rec.LSN, err)
		}
		if err := ref.Apply(ops); err != nil {
			t.Fatalf("applied record %d whose ops do not apply: %v", rec.LSN, err)
		}
	}
	if err != nil {
		return
	}
	got, gerr := reg.SnapshotView(nil).Encode()
	want, werr := ref.SnapshotView(nil).Encode()
	if gerr != nil || werr != nil {
		t.Fatalf("encode: %v / %v", gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("follower state differs from a replay of its records:\n got %s\nwant %s", got, want)
	}
}
