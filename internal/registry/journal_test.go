package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/schema"
)

// memJournal captures committed records for inspection.
type memJournal struct {
	records [][]Op
	err     error
}

func (j *memJournal) CommitAsync(ops []Op) func() error {
	cp := append([]Op(nil), ops...)
	j.records = append(j.records, cp)
	err := j.err
	return func() error { return err }
}

func testSchema(name string, cols ...string) *schema.Schema {
	s := schema.New(name, schema.FormatRelational)
	root := s.AddElement(nil, name+"_root", schema.KindTable, schema.TypeNone)
	for _, c := range cols {
		s.AddElement(root, c, schema.KindColumn, schema.TypeString)
	}
	return s
}

// TestJournalRoundTrip drives every op kind through a journaling registry
// and replays the captured log into a fresh one: the reconstruction must
// encode byte-identically.
func TestJournalRoundTrip(t *testing.T) {
	j := &memJournal{}
	r := New()
	r.SetJournal(j)

	a := testSchema("alpha", "id", "name", "price")
	b := testSchema("beta", "id", "label", "cost")
	c := testSchema("gamma", "id")
	if err := r.AddSchema(a, "alice", "sales"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(b, "bob"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(c, ""); err != nil {
		t.Fatal(err)
	}
	id, err := r.AddMatch(MatchArtifact{
		SchemaA: "alpha", SchemaB: "beta",
		Pairs: []AssertedMatch{{PathA: "alpha_root/id", PathB: "beta_root/id", Score: 0.9, Status: StatusAccepted}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := r.Match(id)
	updated := *ma
	updated.Pairs = append(append([]AssertedMatch(nil), ma.Pairs...),
		AssertedMatch{PathA: "alpha_root/name", PathB: "beta_root/label", Score: 0.7, Status: StatusProposed})
	if err := r.UpdateMatch(id, updated); err != nil {
		t.Fatal(err)
	}
	a2 := testSchema("alpha", "id", "name", "price", "currency")
	if _, err := r.AddVersion(a2, "alice"); err != nil {
		t.Fatal(err)
	}
	removed, err := r.RemoveSchema("gamma")
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed %d artifacts, want 0", removed)
	}

	if len(j.records) != 7 {
		t.Fatalf("journal has %d records, want 7 (one per mutation)", len(j.records))
	}

	replayed := New()
	for _, rec := range j.records {
		if err := replayed.Apply(rec); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	want, err := r.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed state differs from original:\nwant %s\ngot  %s", want, got)
	}

	// nextID continuity: a fresh AddMatch on the replayed registry must not
	// collide with the replayed artifact IDs.
	id2, err := replayed.AddMatch(MatchArtifact{
		SchemaA: "alpha", SchemaB: "beta",
		Pairs: []AssertedMatch{{PathA: "alpha_root/price", PathB: "beta_root/cost", Score: 0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("replayed registry reissued artifact ID %s", id)
	}
}

// TestJournalUpgradeIsOneRecord commits a version bump and the migration
// of every artifact it touches as one record, [OpSchemaVersion,
// OpMatchUpdate...], and that record replays to the same state.
func TestJournalUpgradeIsOneRecord(t *testing.T) {
	j := &memJournal{}
	r := New()
	r.SetJournal(j)
	a := testSchema("a", "x")
	for _, s := range []*schema.Schema{a, testSchema("b", "x"), testSchema("c", "x")} {
		if err := r.AddSchema(s, ""); err != nil {
			t.Fatal(err)
		}
	}
	var updates []MatchArtifact
	for _, other := range []string{"b", "c"} {
		id, err := r.AddMatch(MatchArtifact{
			SchemaA: "a", SchemaB: other,
			Pairs: []AssertedMatch{{PathA: "a_root/x", PathB: other + "_root/x", Score: 0.8}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ma, _ := r.Match(id)
		upd := *ma
		upd.Pairs = append(append([]AssertedMatch(nil), ma.Pairs...),
			AssertedMatch{PathA: "a_root/y", PathB: other + "_root/x", Score: 0.5})
		updates = append(updates, upd)
	}
	before := len(j.records)
	if _, err := r.AddVersionIf(testSchema("a", "x", "y"), a.Fingerprint(), "", updates); err != nil {
		t.Fatal(err)
	}
	if len(j.records) != before+1 {
		t.Fatalf("upgrade committed %d records, want 1", len(j.records)-before)
	}
	rec := j.records[len(j.records)-1]
	if len(rec) != 1+len(updates) {
		t.Fatalf("upgrade record has %d ops, want %d", len(rec), 1+len(updates))
	}
	if rec[0].Kind != OpSchemaVersion {
		t.Fatalf("upgrade record starts with %s, want %s", rec[0].Kind, OpSchemaVersion)
	}
	for i, op := range rec[1:] {
		if op.Kind != OpMatchUpdate || op.Artifact.ID != updates[i].ID {
			t.Fatalf("op %d is %s %+v, want %s of %s", i+1, op.Kind, op.Artifact, OpMatchUpdate, updates[i].ID)
		}
	}

	replayed := New()
	for _, rec := range j.records {
		if err := replayed.Apply(rec); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	want, err := r.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.SnapshotView(nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("replayed upgrade differs from original:\nwant %s\ngot  %s", want, got)
	}
}

// TestFailedUpgradeChangesNothing: an upgrade any of whose checks fails —
// here an update with a dangling counterpart path, an unknown artifact, an
// out-of-range score, or a stale fingerprint — returns an error, journals
// nothing and leaves the registry byte-identical.
func TestFailedUpgradeChangesNothing(t *testing.T) {
	j := &memJournal{}
	r := New()
	r.SetJournal(j)
	a := testSchema("a", "x", "y")
	if err := r.AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(testSchema("b", "x", "label"), ""); err != nil {
		t.Fatal(err)
	}
	id, err := r.AddMatch(MatchArtifact{
		SchemaA: "a", SchemaB: "b",
		Pairs: []AssertedMatch{
			{PathA: "a_root/x", PathB: "b_root/x", Score: 0.9},
			{PathA: "a_root/y", PathB: "b_root/label", Score: 0.7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replacing b without migrating the artifact leaves b_root/label
	// dangling on the counterpart side of any upgrade of a.
	r.ReplaceSchema(testSchema("b", "x"), "")
	stored, _ := r.Match(id)

	withScore := *stored
	withScore.Pairs = []AssertedMatch{{PathA: "a_root/z", PathB: "b_root/x", Score: 1.5}}
	unknown := *stored
	unknown.ID = "match-999999"
	clean := *stored
	clean.Pairs = stored.Pairs[:1]

	next := testSchema("a", "x", "y", "z")
	cases := []struct {
		name   string
		expect string
		update MatchArtifact
		want   string // error substring
	}{
		{"dangling counterpart path", a.Fingerprint(), *stored, `path "b_root/label" not in schema "b"`},
		{"unknown artifact", a.Fingerprint(), unknown, "no artifact"},
		{"score out of range", a.Fingerprint(), withScore, "out of range"},
		{"stale fingerprint", "stale", clean, "changed concurrently"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, err := r.SnapshotView(nil).Encode()
			if err != nil {
				t.Fatal(err)
			}
			records := len(j.records)
			_, err = r.AddVersionIf(next, tc.expect, "", []MatchArtifact{tc.update})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("upgrade error %v, want one containing %q", err, tc.want)
			}
			if n := len(j.records) - records; n != 0 {
				t.Fatalf("failed upgrade journaled %d records", n)
			}
			after, err := r.SnapshotView(nil).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("failed upgrade changed the registry:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
	// The same upgrade with a valid update commits.
	if _, err := r.AddVersionIf(next, a.Fingerprint(), "", []MatchArtifact{clean}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalNilIsInMemory keeps the historical behavior for library
// users: no journal, no ops, everything still works.
func TestJournalNilIsInMemory(t *testing.T) {
	r := New()
	a := testSchema("a", "x")
	if err := r.AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	bump, err := r.AddVersionIf(testSchema("a", "x", "y"), a.Fingerprint(), "", nil)
	if err != nil || bump.Curr.Version != 2 {
		t.Fatalf("AddVersionIf without a journal: %v %+v", err, bump)
	}
}

// gateJournal is a Journal that keeps every CommitAsync as one
// record and indexes the record of each schema-add (by schema name) and
// match-add (by artifact ID). upgradeWait, when set, runs inside the
// durability wait of every record that starts with OpSchemaVersion, so a
// test can hold an upgrade between its commit and its acknowledgment.
type gateJournal struct {
	upgradeWait func()

	mu      sync.Mutex
	records [][]Op
	index   map[string]int
}

func (j *gateJournal) CommitAsync(ops []Op) func() error {
	j.mu.Lock()
	if j.index == nil {
		j.index = make(map[string]int)
	}
	for _, op := range ops {
		switch op.Kind {
		case OpSchemaAdd:
			var named struct{ Name string }
			if err := json.Unmarshal(op.Schema, &named); err != nil {
				panic(err)
			}
			j.index["schema:"+named.Name] = len(j.records)
		case OpMatchAdd:
			j.index["match:"+op.Artifact.ID] = len(j.records)
		}
	}
	j.records = append(j.records, append([]Op(nil), ops...))
	j.mu.Unlock()
	if ops[0].Kind == OpSchemaVersion && j.upgradeWait != nil {
		return func() error { j.upgradeWait(); return nil }
	}
	return func() error { return nil }
}

// lookup returns the position and op count of the record that holds key's
// op; ok is false while no record holds it.
func (j *gateJournal) lookup(key string) (rec, ops int, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok = j.index[key]
	if !ok {
		return -1, 0, false
	}
	return rec, len(j.records[rec]), true
}

// lastUpgrade returns the position of the newest record that starts with
// OpSchemaVersion, or -1.
func (j *gateJournal) lastUpgrade() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := len(j.records) - 1; i >= 0; i-- {
		if j.records[i][0].Kind == OpSchemaVersion {
			return i
		}
	}
	return -1
}

// TestConcurrentMutatorAckedAfterOwnRecord holds an upgrade between its
// commit and its durability acknowledgment. A concurrent AddSchema and
// AddMatch must each return only once their own op has reached
// CommitAsync, each in its own record after the upgrade's: no mutator is
// acknowledged on the strength of another mutation's record.
func TestConcurrentMutatorAckedAfterOwnRecord(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	j := &gateJournal{upgradeWait: func() { close(entered); <-release }}
	r := New()
	r.SetJournal(j)
	a := testSchema("a", "x")
	if err := r.AddSchema(a, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(testSchema("b", "x"), ""); err != nil {
		t.Fatal(err)
	}
	pair := []AssertedMatch{{PathA: "a_root/x", PathB: "b_root/x", Score: 0.8}}
	id, err := r.AddMatch(MatchArtifact{SchemaA: "a", SchemaB: "b", Pairs: pair})
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := r.Match(id)
	upd := *ma
	upd.Pairs = append(append([]AssertedMatch(nil), ma.Pairs...),
		AssertedMatch{PathA: "a_root/y", PathB: "b_root/x", Score: 0.5})

	upgraded := make(chan error, 1)
	go func() {
		_, err := r.AddVersionIf(testSchema("a", "x", "y"), a.Fingerprint(), "", []MatchArtifact{upd})
		upgraded <- err
	}()
	<-entered // the upgrade record is journaled; its acknowledgment is held
	upgradeRec := j.lastUpgrade()

	type acked struct {
		what     string
		key      string
		rec, ops int
		ok       bool
	}
	results := make(chan acked, 2)
	go func() {
		if err := r.AddSchema(testSchema("c", "x"), ""); err != nil {
			t.Error(err)
			results <- acked{what: "AddSchema"}
			return
		}
		rec, ops, ok := j.lookup("schema:c")
		results <- acked{"AddSchema", "schema:c", rec, ops, ok}
	}()
	go func() {
		id, err := r.AddMatch(MatchArtifact{SchemaA: "a", SchemaB: "b", Pairs: pair})
		if err != nil {
			t.Error(err)
			results <- acked{what: "AddMatch"}
			return
		}
		rec, ops, ok := j.lookup("match:" + id)
		results <- acked{"AddMatch", "match:" + id, rec, ops, ok}
	}()
	for range 2 {
		got := <-results
		switch {
		case got.key == "":
			// The mutator failed; already reported.
		case !got.ok:
			t.Errorf("%s returned before its op reached the journal", got.what)
		case got.ops != 1:
			t.Errorf("%s op rode in a %d-op record", got.what, got.ops)
		case got.rec <= upgradeRec:
			t.Errorf("%s op in record %d, not after the upgrade record %d", got.what, got.rec, upgradeRec)
		}
	}
	select {
	case err := <-upgraded:
		t.Fatalf("upgrade acknowledged before its wait was released: %v", err)
	default:
	}
	close(release)
	if err := <-upgraded; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMutatorsAckedDuringUpgradesStress runs AddSchema and
// AddMatch on several goroutines while another loops upgrades, each of
// which is held briefly before its acknowledgment. Every mutator that
// returns nil must already have its op in the journal. Run it with -race.
func TestConcurrentMutatorsAckedDuringUpgradesStress(t *testing.T) {
	j := &gateJournal{upgradeWait: func() { time.Sleep(20 * time.Microsecond) }}
	r := New()
	r.SetJournal(j)
	if err := r.AddSchema(testSchema("hub", "id", "x"), ""); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(testSchema("b", "id"), ""); err != nil {
		t.Fatal(err)
	}
	hubID, err := r.AddMatch(MatchArtifact{
		SchemaA: "hub", SchemaB: "b",
		Pairs: []AssertedMatch{{PathA: "hub_root/id", PathB: "b_root/id", Score: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	upgrades := make(chan int, 1)
	go func() {
		n := 0
		defer func() { upgrades <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur, _ := r.Schema("hub")
			ma, _ := r.Match(hubID)
			next := testSchema("hub", "id", fmt.Sprintf("v%d", n))
			if _, err := r.AddVersionIf(next, cur.Fingerprint, "", []MatchArtifact{*ma}); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				name := fmt.Sprintf("w%d-%d", w, i)
				if err := r.AddSchema(testSchema(name, "id"), ""); err != nil {
					t.Error(err)
					return
				}
				if _, _, ok := j.lookup("schema:" + name); !ok {
					t.Errorf("AddSchema(%s) returned before its op reached the journal", name)
				}
				id, err := r.AddMatch(MatchArtifact{
					SchemaA: name, SchemaB: "b",
					Pairs: []AssertedMatch{{PathA: name + "_root/id", PathB: "b_root/id", Score: 0.9}},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, ok := j.lookup("match:" + id); !ok {
					t.Errorf("AddMatch(%s) returned before its op reached the journal", id)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-upgrades; n == 0 {
		t.Fatal("no upgrade ran alongside the mutators")
	}
}
