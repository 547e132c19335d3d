package store

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

// restartCorpus is the schema set the restart tests store: 2,048
// schemata, four times the search index's merge floor of 512, so a
// restart that merged while it admitted would build each posting space
// several times.
func restartCorpus(t *testing.T) []*schema.Schema {
	t.Helper()
	schemas, _, _ := synth.Collection(13, 8, 256)
	return schemas
}

// fillStore writes schemas into a fresh store directory in records of
// 100 (the shape of a bulk ingest stream), optionally snapshotting before
// it closes, and returns the directory and the fragment count.
func fillStore(t *testing.T, schemas []*schema.Schema, snapshot bool) (dir string, fragments int) {
	t.Helper()
	dir = t.TempDir()
	st := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff})
	for i := 0; i < len(schemas); i += 100 {
		batch := schemas[i:min(i+100, len(schemas))]
		_, errs := st.Registry().AddSchemas(batch, "steward")
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if snapshot {
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range schemas {
		fragments += len(s.Roots())
	}
	return dir, fragments
}

// TestOpenBuildsIndexOnce: a restart admits the whole store before the
// search index merges, then builds each posting space exactly once — from
// a snapshot and from a WAL alike — and returns with nothing left in the
// index's mutable tails.
func TestOpenBuildsIndexOnce(t *testing.T) {
	schemas := restartCorpus(t)
	for _, tc := range []struct {
		name     string
		snapshot bool
		replayed int
	}{
		{"snapshot-only", true, 0},
		{"wal-only", false, (len(schemas) + 99) / 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, fragments := fillStore(t, schemas, tc.snapshot)
			st := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff})
			defer st.Close()
			if got := st.Stats().Replayed; got != tc.replayed {
				t.Fatalf("replayed %d records, want %d", got, tc.replayed)
			}
			// The registry is new in Open, so its merge count is the
			// restart's: one build per posting space.
			is := st.Registry().IndexStats()
			t.Logf("%+v", is)
			if is.Merges != 2 {
				t.Errorf("Open performed %d segment builds, want 2 (one per posting space)", is.Merges)
			}
			if is.TailSchemas != 0 || is.TailFragments != 0 {
				t.Errorf("Open left %d schemata and %d fragments in the tails", is.TailSchemas, is.TailFragments)
			}
			if is.FlatSchemas != len(schemas) || is.FlatFragments != fragments {
				t.Errorf("flat segments hold %d schemata and %d fragments, want %d and %d",
					is.FlatSchemas, is.FlatFragments, len(schemas), fragments)
			}
			if got := st.Registry().SearchSchema(schemas[7], 1); len(got) == 0 || got[0].Schema != schemas[7].Name {
				t.Errorf("a schema no longer finds itself after the restart: %v", got)
			}
		})
	}
}

// corruptSnapshots damages a valid snapshot three ways: cut inside a
// schema, the envelope's ID counter as a string, and a schema's bytes
// with a colon missing.
func corruptSnapshots(t *testing.T, good []byte) map[string][]byte {
	t.Helper()
	cut := bytes.Index(good, []byte(`"elements"`))
	badField := regexp.MustCompile(`"nextId":(\d+)`).ReplaceAll(good, []byte(`"nextId":"$1"`))
	badSchema := bytes.Replace(good, []byte(`"name":`), []byte(`"name" `), 1)
	if cut < 0 || bytes.Equal(badField, good) || bytes.Equal(badSchema, good) {
		t.Fatal("snapshot lacks the fields the corruptions target")
	}
	return map[string][]byte{
		"cut mid-schema":       good[:cut+20],
		"bad envelope field":   badField,
		"invalid schema bytes": badSchema,
	}
}

// TestOpenFallsBackOnCorruptSnapshot: a newest snapshot cut inside a
// schema, with an envelope field of the wrong type, or with invalid JSON
// inside a schema's bytes is refused, and Open recovers from the snapshot
// before it.
func TestOpenFallsBackOnCorruptSnapshot(t *testing.T) {
	good, err := os.ReadFile(filepath.Join("..", "registry", "testdata", "snapshot-compat.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := registry.DecodeSnapshot(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range corruptSnapshots(t, good) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeSnapshot(dir, 0, good); err != nil {
				t.Fatal(err)
			}
			if err := writeSnapshot(dir, 1, bad); err != nil {
				t.Fatal(err)
			}
			var logs []string
			st := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, Logf: func(f string, a ...any) {
				logs = append(logs, f)
			}})
			defer st.Close()
			if st.Stats().SnapshotLSN != 0 {
				t.Fatalf("recovered from snapshot lsn %d, want the fallback at 0", st.Stats().SnapshotLSN)
			}
			if got := string(encode(t, st.Registry())); got != string(encode(t, want)) {
				t.Fatal("fallback recovery differs from the good snapshot")
			}
			if len(logs) == 0 {
				t.Fatal("the refused snapshot was not logged")
			}
		})
	}
}
