package harmony

import (
	"bytes"
	"strings"
	"testing"
)

const facadeDDL = `
CREATE TABLE Person_Master (
  PERSON_ID UUID PRIMARY KEY, -- unique identifier of the person
  FIRST_NM VARCHAR(60), -- given name of the person
  LAST_NM VARCHAR(60), -- family name of the person
  BIRTH_DT DATE -- date of birth
);
CREATE TABLE Vehicle_Master (
  VEH_ID UUID PRIMARY KEY, -- unique identifier of the vehicle
  MAKE_NM VARCHAR(60), -- manufacturer of the vehicle
  FUEL_CD VARCHAR(8) -- type of fuel consumed
);
`

const facadeXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="IndividualType">
    <xs:annotation><xs:documentation>an individual person</xs:documentation></xs:annotation>
    <xs:sequence>
      <xs:element name="individualId" type="xs:ID">
        <xs:annotation><xs:documentation>unique identifier of the individual</xs:documentation></xs:annotation>
      </xs:element>
      <xs:element name="givenName" type="xs:string">
        <xs:annotation><xs:documentation>given name of the person</xs:documentation></xs:annotation>
      </xs:element>
      <xs:element name="familyName" type="xs:string">
        <xs:annotation><xs:documentation>family name of the person</xs:documentation></xs:annotation>
      </xs:element>
      <xs:element name="dateOfBirth" type="xs:date">
        <xs:annotation><xs:documentation>date of birth</xs:documentation></xs:annotation>
      </xs:element>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="ContractType">
    <xs:sequence>
      <xs:element name="vendorName" type="xs:string"/>
      <xs:element name="awardDate" type="xs:date"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>`

func loadPair(t *testing.T) (*Schema, *Schema) {
	t.Helper()
	a, err := ParseDDL("SA", facadeDDL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseXSD("SB", []byte(facadeXSD))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestFacadeEndToEnd(t *testing.T) {
	a, b := loadPair(t)
	m := NewMatcher()
	res := m.Match(a, b)

	// One-to-one selection must pair person fields.
	found := map[string]string{}
	for _, c := range res.Correspondences() {
		found[res.Raw().Src.View(c.Src).El.Path()] = res.Raw().Dst.View(c.Dst).El.Path()
	}
	if found["Person_Master/LAST_NM"] != "IndividualType/familyName" {
		t.Errorf("LAST_NM matched %q", found["Person_Master/LAST_NM"])
	}
	if found["Person_Master/BIRTH_DT"] != "IndividualType/dateOfBirth" {
		t.Errorf("BIRTH_DT matched %q", found["Person_Master/BIRTH_DT"])
	}

	// Partition: Vehicle side of SA and Contract side of SB stay distinct.
	part := res.Partition()
	st := part.Stats()
	if st.MatchedB == 0 || st.OnlyB == 0 {
		t.Errorf("partition stats = %+v", st)
	}
	for _, e := range part.OnlyB {
		if strings.HasPrefix(e.Path(), "IndividualType/") && e.Path() != "IndividualType" {
			// person fields should all be matched
			t.Errorf("person field unmatched: %s", e.Path())
		}
	}

	// Concept lifting.
	sa, sb := SummarizeRoots(a), SummarizeRoots(b)
	cms := res.LiftConcepts(sa, sb)
	if len(cms) != 1 || cms[0].A.Label != "Person_Master" || cms[0].B.Label != "IndividualType" {
		t.Errorf("concept matches = %v", cms)
	}

	// Workbook row math: concepts 2+2-1 = 3 rows.
	wb := res.Workbook(sa, sb, nil)
	if wb.ConceptRows() != 3 {
		t.Errorf("concept rows = %d", wb.ConceptRows())
	}

	// Report.
	var buf bytes.Buffer
	if err := res.WriteReport(&buf, sa, sb, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Headline:") {
		t.Error("report missing headline")
	}
}

func TestFacadePresets(t *testing.T) {
	if _, err := NewMatcherWith("coma", 0.3); err != nil {
		t.Error(err)
	}
	if _, err := NewMatcherWith("bogus", 0.3); err == nil {
		t.Error("expected error for unknown preset")
	}
}

func TestFacadeVocabulary(t *testing.T) {
	a, b := loadPair(t)
	m := NewMatcher()
	v, err := m.ComprehensiveVocabulary([]*Schema{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumCells() < 2 {
		t.Errorf("cells = %d", v.NumCells())
	}
	var buf bytes.Buffer
	if err := WriteVocabulary(&buf, v, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SA∩SB") {
		t.Errorf("vocabulary render missing shared cell:\n%s", buf.String())
	}
}

func TestFacadeClustering(t *testing.T) {
	a, b := loadPair(t)
	// duplicate-ish schemas cluster together
	a2, _ := ParseDDL("SA2", facadeDDL)
	b2, _ := ParseXSD("SB2", []byte(facadeXSD))
	schemas := []*Schema{a, a2, b, b2}
	d := QuickDistances(schemas)
	labels := ClusterSchemas(d, 2)
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Errorf("clustering labels = %v", labels)
	}
	coins, dg := ProposeCOIs(d)
	if dg == nil || len(coins) != 4 {
		t.Errorf("ProposeCOIs = %v", coins)
	}
}

func TestFacadeRegistryAndSearch(t *testing.T) {
	a, b := loadPair(t)
	r := NewRegistry()
	if err := r.AddSchema(a, "G-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSchema(b, "G-2"); err != nil {
		t.Fatal(err)
	}
	hits := r.SearchText("date of birth person", 2)
	if len(hits) == 0 {
		t.Fatal("no search hits")
	}
	ix := NewIndex()
	ix.Add(a)
	if got := ix.SearchSchema(b, 1); len(got) != 1 || got[0].Schema != "SA" {
		t.Errorf("SearchSchema = %v", got)
	}
}

func TestFacadeSessionAndEffort(t *testing.T) {
	a, b := loadPair(t)
	m := NewMatcher()
	s, err := m.NewSession(a, b, SummarizeRoots(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tasks()) != 2 {
		t.Errorf("tasks = %d", len(s.Tasks()))
	}
	e := EstimateEffort(1800, 191, 2)
	// The case study's scale should land near the paper's 3 days x 2 engineers.
	if e.DaysWithTeam < 1 || e.DaysWithTeam > 6 {
		t.Errorf("effort estimate implausible: %+v", e)
	}
}

func TestFacadeThresholdHelpers(t *testing.T) {
	a, b := loadPair(t)
	m := NewMatcher()
	res := m.Match(a, b)
	sug := res.SuggestedThreshold()
	if sug <= 0 || sug >= 1 {
		t.Fatalf("suggested threshold = %f", sug)
	}
	// The suggestion must keep the true person-field pairs selectable.
	at := res.WithThreshold(sug)
	if at.Threshold() != sug {
		t.Errorf("WithThreshold did not retarget: %f", at.Threshold())
	}
	if len(at.Correspondences()) < 3 {
		t.Errorf("selection at suggestion too small: %v", at.Correspondences())
	}
	// The histogram bins every scored pair.
	total := 0
	for _, n := range res.Histogram(10) {
		total += n
	}
	if total != res.Raw().Matrix.Pairs() {
		t.Errorf("histogram total = %d, want %d pairs", total, res.Raw().Matrix.Pairs())
	}
	// WithThreshold shares the matrix (no recompute).
	if at.Raw() != res.Raw() {
		t.Error("WithThreshold should share the raw result")
	}
}

func TestFacadeGeneratePair(t *testing.T) {
	a, b, truth := GeneratePair(3, 6, 5, 3, 5)
	if a.Len() == 0 || b.Len() == 0 {
		t.Fatal("empty pair")
	}
	if len(truth.Pairs(a, b)) == 0 {
		t.Fatal("no planted overlap")
	}
}
