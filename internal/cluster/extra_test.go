package cluster

import (
	"context"
	"testing"

	"harmony/internal/core"
	"harmony/internal/schema"
)

func TestSingleLinkageChains(t *testing.T) {
	// A chain a-b-c-d with small consecutive distances: single linkage
	// merges the chain before bridging to the far point e.
	m := NewDistanceMatrix(5)
	chain := []float64{0.1, 0.12, 0.14}
	for i := 0; i < 3; i++ {
		m.Set(i, i+1, chain[i])
	}
	// fill remaining with larger values
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if m.At(i, j) == 0 {
				m.Set(i, j, 0.9)
			}
		}
	}
	dg := Agglomerative(m, Single)
	labels := dg.Cut(2)
	// chain {0,1,2,3} together, {4} alone
	if labels[0] != labels[1] || labels[1] != labels[2] || labels[2] != labels[3] {
		t.Errorf("chain broken: %v", labels)
	}
	if labels[4] == labels[0] {
		t.Errorf("outlier absorbed: %v", labels)
	}
}

func TestKMedoidsDegenerateK(t *testing.T) {
	m := plantedDistances()
	labels, medoids := KMedoids(m, 0, 1) // k<1 clamps to 1
	if len(medoids) != 1 {
		t.Errorf("k=0 medoids = %v", medoids)
	}
	for _, l := range labels {
		if l != 0 {
			t.Errorf("k=1 labels = %v", labels)
		}
	}
	labels, medoids = KMedoids(m, 100, 1) // k>n clamps to n
	if len(medoids) != m.Len() {
		t.Errorf("k>n medoids = %d", len(medoids))
	}
	_ = labels
	if l, md := KMedoids(NewDistanceMatrix(0), 3, 1); l != nil || md != nil {
		t.Error("empty matrix should return nil")
	}
}

func TestAgglomerativeEmptyAndSingle(t *testing.T) {
	dg := Agglomerative(NewDistanceMatrix(0), Average)
	if dg.Leaves() != 0 || len(dg.Merges) != 0 {
		t.Errorf("empty dendrogram: %+v", dg)
	}
	if out := dg.Render(nil); out == "" {
		t.Error("empty render")
	}
	dg = Agglomerative(NewDistanceMatrix(1), Average)
	if got := dg.Cut(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-leaf cut = %v", got)
	}
}

func TestMatchDistancesOnTinySchemas(t *testing.T) {
	mk := func(name, field string) *schema.Schema {
		s := schema.New(name, schema.FormatRelational)
		tb := s.AddRoot("Person", schema.KindTable)
		s.AddElement(tb, "PERSON_ID", schema.KindColumn, schema.TypeIdentifier)
		s.AddElement(tb, field, schema.KindColumn, schema.TypeString)
		return s
	}
	a := mk("A", "LAST_NAME")
	b := mk("B", "FAMILY_NAME")
	c := schema.New("C", schema.FormatRelational)
	w := c.AddRoot("Weather", schema.KindTable)
	c.AddElement(w, "TEMPERATURE", schema.KindColumn, schema.TypeDecimal)
	c.AddElement(w, "WIND_SPEED", schema.KindColumn, schema.TypeDecimal)

	d, err := Distances(context.Background(), core.PresetHarmony(), []*schema.Schema{a, b, c}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !(d.At(0, 1) < d.At(0, 2)) {
		t.Errorf("related schemas should be closer: d(A,B)=%f d(A,C)=%f", d.At(0, 1), d.At(0, 2))
	}
}

func TestHeights(t *testing.T) {
	dg := Agglomerative(plantedDistances(), Average)
	h := dg.Heights()
	if len(h) != 5 {
		t.Fatalf("heights = %v", h)
	}
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1] {
			t.Error("average-linkage heights should be monotone")
		}
	}
}

// TestDistancesCancelled: a context cancelled before the call stops the
// pairwise loop before its first match.
func TestDistancesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pc := core.NewProfileCache(0)
	eng := core.PresetHarmony().WithOptions(core.WithProfileCache(pc))
	var schemas []*schema.Schema
	for _, name := range []string{"A", "B", "C"} {
		s := schema.New(name, schema.FormatRelational)
		s.AddElement(s.AddRoot("T", schema.KindTable), "ID", schema.KindColumn, schema.TypeString)
		schemas = append(schemas, s)
	}
	if _, err := Distances(ctx, eng, schemas, 0.3); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := pc.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("cancelled distances looked up %d profiles", st.Hits+st.Misses)
	}
}
