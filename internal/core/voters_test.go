package core

import (
	"testing"
	"testing/quick"

	"harmony/internal/schema"
)

// pairViews compiles both schemata afresh and pairs their profiles: the
// views a match over them scores.
func pairViews(a, b *schema.Schema) (*SchemaView, *SchemaView) {
	return PairProfiles(CompileSchema(a), CompileSchema(b))
}

// viewsFor builds preprocessed views for two tiny schemata whose elements
// are handy voter inputs.
func viewsFor(t *testing.T) (*SchemaView, *SchemaView) {
	t.Helper()
	return pairViews(personSchemaA(), personSchemaB())
}

func viewOf(sv *SchemaView, path string) *ElementView {
	e := sv.Schema.ByPath(path)
	if e == nil {
		panic("no such path " + path)
	}
	return sv.View(e.ID)
}

func TestNameVoter(t *testing.T) {
	sv, dv := viewsFor(t)
	v := NameVoter{}
	good := v.Vote(viewOf(sv, "Person/LAST_NAME"), viewOf(dv, "IndividualType/familyName"))
	bad := v.Vote(viewOf(sv, "Person/LAST_NAME"), viewOf(dv, "WeatherReport/temperature"))
	if good.Score() <= bad.Score() {
		t.Errorf("name voter: good %f <= bad %f", good.Score(), bad.Score())
	}
	if good.Score() <= 0 {
		t.Errorf("LAST_NAME vs familyName should be positive, got %f", good.Score())
	}
	if bad.Score() >= 0 {
		t.Errorf("LAST_NAME vs temperature should be negative, got %f", bad.Score())
	}
}

func TestDocVoter(t *testing.T) {
	sv, dv := viewsFor(t)
	v := DocVoter{}
	good := v.Vote(viewOf(sv, "Person/BIRTH_DT"), viewOf(dv, "IndividualType/dateOfBirth"))
	if good.Score() <= 0 {
		t.Errorf("doc voter on 'date of birth' docs = %f, want positive", good.Score())
	}
	// element without documentation: VEHICLE_ID has no doc, but docTokens
	// include name tokens, so the voter still has something. Check abstention
	// on truly empty views instead.
	empty := ElementView{}
	if got := v.Vote(&empty, viewOf(dv, "IndividualType/dateOfBirth")); !got.IsAbstention() {
		t.Errorf("doc voter should abstain without a vector, got %+v", got)
	}
}

func TestPathVoter(t *testing.T) {
	sv, dv := viewsFor(t)
	v := PathVoter{}
	same := v.Vote(viewOf(sv, "Person/PERSON_ID"), viewOf(dv, "IndividualType/individualId"))
	cross := v.Vote(viewOf(sv, "Person/PERSON_ID"), viewOf(dv, "WeatherReport/windSpeed"))
	if same.Score() <= cross.Score() {
		t.Errorf("path voter: same-concept %f <= cross-concept %f", same.Score(), cross.Score())
	}
}

func TestTypeVoter(t *testing.T) {
	sv, dv := viewsFor(t)
	v := TypeVoter{}
	sameType := v.Vote(viewOf(sv, "Person/BIRTH_DT"), viewOf(dv, "IndividualType/dateOfBirth"))   // date vs date
	classMatch := v.Vote(viewOf(sv, "Person/PERSON_ID"), viewOf(dv, "IndividualType/familyName")) // identifier vs string: textual class
	conflict := v.Vote(viewOf(sv, "Person/BIRTH_DT"), viewOf(dv, "WeatherReport/temperature"))    // date vs decimal
	if !(sameType.Score() > classMatch.Score()) {
		t.Errorf("exact type %f should beat class match %f", sameType.Score(), classMatch.Score())
	}
	if conflict.Score() >= 0 {
		t.Errorf("type conflict should be negative, got %f", conflict.Score())
	}
	containers := v.Vote(viewOf(sv, "Person"), viewOf(dv, "IndividualType"))
	if !containers.IsAbstention() {
		t.Errorf("type voter should abstain on containers, got %+v", containers)
	}
}

func TestStructureVoter(t *testing.T) {
	sv, dv := viewsFor(t)
	v := StructureVoter{}
	tables := v.Vote(viewOf(sv, "Person"), viewOf(dv, "IndividualType"))
	unrelated := v.Vote(viewOf(sv, "Vehicle"), viewOf(dv, "WeatherReport"))
	if tables.Score() <= unrelated.Score() {
		t.Errorf("structure voter: aligned tables %f <= unrelated %f", tables.Score(), unrelated.Score())
	}
	mixed := v.Vote(viewOf(sv, "Person"), viewOf(dv, "WeatherReport/temperature"))
	if mixed.Score() >= 0 {
		t.Errorf("container-vs-leaf should lean negative, got %f", mixed.Score())
	}
}

func TestAcronymVoter(t *testing.T) {
	s1 := schema.New("X", schema.FormatRelational)
	tbl := s1.AddRoot("Msg", schema.KindTable)
	s1.AddElement(tbl, "DTG", schema.KindColumn, schema.TypeString)
	s2 := schema.New("Y", schema.FormatXML)
	ct := s2.AddRoot("Message", schema.KindComplexType)
	s2.AddElement(ct, "Date_Time_Group", schema.KindXMLElement, schema.TypeString)
	s2.AddElement(ct, "Priority", schema.KindXMLElement, schema.TypeString)
	sv, dv := pairViews(s1, s2)
	v := AcronymVoter{}
	hit := v.Vote(viewOf(sv, "Msg/DTG"), viewOf(dv, "Message/Date_Time_Group"))
	if hit.IsAbstention() || hit.Score() <= 0.3 {
		t.Errorf("DTG should match Date_Time_Group strongly, got %+v", hit)
	}
	miss := v.Vote(viewOf(sv, "Msg/DTG"), viewOf(dv, "Message/Priority"))
	if !miss.IsAbstention() {
		t.Errorf("acronym voter should abstain on non-acronym pair, got %+v", miss)
	}
}

func TestVoterNamesUniqueAndConcurrentSafe(t *testing.T) {
	voters := []Voter{NameVoter{}, DocVoter{}, PathVoter{}, TypeVoter{}, StructureVoter{}, AcronymVoter{}}
	seen := map[string]bool{}
	for _, v := range voters {
		if v.Name() == "" || seen[v.Name()] {
			t.Errorf("bad voter name %q", v.Name())
		}
		seen[v.Name()] = true
	}
	// concurrent use smoke test (run with -race)
	sv, dv := viewsFor(t)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < sv.Len(); i++ {
				for j := 0; j < dv.Len(); j++ {
					for _, v := range voters {
						v.Vote(sv.View(i), dv.View(j))
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// nameViews compiles two one-column schemata and returns the compiled
// views of their columns, named a and b.
func nameViews(a, b string) (*ElementView, *ElementView) {
	one := func(name string) *schema.Schema {
		s := schema.New("S", schema.FormatRelational)
		s.AddElement(s.AddRoot("T", schema.KindTable), name, schema.KindColumn, schema.TypeString)
		return s
	}
	sv, dv := PairProfiles(CompileSchema(one(a)), CompileSchema(one(b)))
	return sv.View(1), dv.View(1)
}

func TestHybridNameSimilarity(t *testing.T) {
	if got := hybridNameSimFlat(nameViews("PERSON_ID", "PersonIdentifier")); got < 0.9 {
		t.Errorf("hybridNameSimFlat(PERSON_ID, PersonIdentifier) = %f, want >= 0.9", got)
	}
	if got := hybridNameSimFlat(nameViews("WEATHER_TEMP", "PersonLastName")); got > 0.5 {
		t.Errorf("hybridNameSimFlat(unrelated) = %f, want <= 0.5", got)
	}
}

func TestHybridNameSimilarityBounds(t *testing.T) {
	prop := func(a, b string) bool {
		s := hybridNameSimFlat(nameViews(trunc(a, 20), trunc(b, 20)))
		return s >= 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func trunc(s string, n int) string {
	r := []rune(s)
	if len(r) > n {
		r = r[:n]
	}
	return string(r)
}
