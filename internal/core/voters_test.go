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
// are handy voter inputs, and a voting scratch bound to their pairing.
func viewsFor(t *testing.T) (*SchemaView, *SchemaView, *pairScratch) {
	t.Helper()
	sv, dv := pairViews(personSchemaA(), personSchemaB())
	return sv, dv, &pairScratch{src: sv, dst: dv}
}

// voteOne votes the pair (src, dst) through v as a one-column row; dst
// is a view of sc.dst.
func voteOne(v Voter, src, dst *ElementView, sc *pairScratch) Vote {
	var out [1]Vote
	v.voteRow(src, []int32{int32(dst.El.ID)}, nil, out[:], sc)
	return out[0]
}

func viewOf(sv *SchemaView, path string) *ElementView {
	e := sv.Schema.ByPath(path)
	if e == nil {
		panic("no such path " + path)
	}
	return sv.View(e.ID)
}

func TestNameVoter(t *testing.T) {
	sv, dv, sc := viewsFor(t)
	v := NameVoter{}
	good := voteOne(v, viewOf(sv, "Person/LAST_NAME"), viewOf(dv, "IndividualType/familyName"), sc)
	bad := voteOne(v, viewOf(sv, "Person/LAST_NAME"), viewOf(dv, "WeatherReport/temperature"), sc)
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
	sv, dv, sc := viewsFor(t)
	v := DocVoter{}
	good := voteOne(v, viewOf(sv, "Person/BIRTH_DT"), viewOf(dv, "IndividualType/dateOfBirth"), sc)
	if good.Score() <= 0 {
		t.Errorf("doc voter on 'date of birth' docs = %f, want positive", good.Score())
	}
	// element without documentation: VEHICLE_ID has no doc, but docTokens
	// include name tokens, so the voter still has something. Check abstention
	// on truly empty views instead.
	empty := ElementView{}
	if got := voteOne(v, &empty, viewOf(dv, "IndividualType/dateOfBirth"), sc); !got.IsAbstention() {
		t.Errorf("doc voter should abstain without a vector, got %+v", got)
	}
}

func TestPathVoter(t *testing.T) {
	sv, dv, sc := viewsFor(t)
	v := PathVoter{}
	same := voteOne(v, viewOf(sv, "Person/PERSON_ID"), viewOf(dv, "IndividualType/individualId"), sc)
	cross := voteOne(v, viewOf(sv, "Person/PERSON_ID"), viewOf(dv, "WeatherReport/windSpeed"), sc)
	if same.Score() <= cross.Score() {
		t.Errorf("path voter: same-concept %f <= cross-concept %f", same.Score(), cross.Score())
	}
}

func TestTypeVoter(t *testing.T) {
	sv, dv, sc := viewsFor(t)
	v := TypeVoter{}
	sameType := voteOne(v, viewOf(sv, "Person/BIRTH_DT"), viewOf(dv, "IndividualType/dateOfBirth"), sc)   // date vs date
	classMatch := voteOne(v, viewOf(sv, "Person/PERSON_ID"), viewOf(dv, "IndividualType/familyName"), sc) // identifier vs string: textual class
	conflict := voteOne(v, viewOf(sv, "Person/BIRTH_DT"), viewOf(dv, "WeatherReport/temperature"), sc)    // date vs decimal
	if !(sameType.Score() > classMatch.Score()) {
		t.Errorf("exact type %f should beat class match %f", sameType.Score(), classMatch.Score())
	}
	if conflict.Score() >= 0 {
		t.Errorf("type conflict should be negative, got %f", conflict.Score())
	}
	containers := voteOne(v, viewOf(sv, "Person"), viewOf(dv, "IndividualType"), sc)
	if !containers.IsAbstention() {
		t.Errorf("type voter should abstain on containers, got %+v", containers)
	}
}

func TestStructureVoter(t *testing.T) {
	sv, dv, sc := viewsFor(t)
	v := StructureVoter{}
	tables := voteOne(v, viewOf(sv, "Person"), viewOf(dv, "IndividualType"), sc)
	unrelated := voteOne(v, viewOf(sv, "Vehicle"), viewOf(dv, "WeatherReport"), sc)
	if tables.Score() <= unrelated.Score() {
		t.Errorf("structure voter: aligned tables %f <= unrelated %f", tables.Score(), unrelated.Score())
	}
	mixed := voteOne(v, viewOf(sv, "Person"), viewOf(dv, "WeatherReport/temperature"), sc)
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
	sc := &pairScratch{src: sv, dst: dv}
	v := AcronymVoter{}
	hit := voteOne(v, viewOf(sv, "Msg/DTG"), viewOf(dv, "Message/Date_Time_Group"), sc)
	if hit.IsAbstention() || hit.Score() <= 0.3 {
		t.Errorf("DTG should match Date_Time_Group strongly, got %+v", hit)
	}
	miss := voteOne(v, viewOf(sv, "Msg/DTG"), viewOf(dv, "Message/Priority"), sc)
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
	// concurrent use smoke test (run with -race): the voters and views
	// are shared, each goroutine votes with its own scratch.
	sv, dv := pairViews(personSchemaA(), personSchemaB())
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			sc := &pairScratch{src: sv, dst: dv}
			out := make([]Vote, dv.Len())
			for i := 0; i < sv.Len(); i++ {
				for _, v := range voters {
					v.voteRow(sv.View(i), nil, nil, out, sc)
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
