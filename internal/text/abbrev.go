package text

import "strings"

// abbreviations maps terse enterprise-schema tokens to their full forms.
// The table covers the conventions observed in military and corporate data
// models of the kind the paper's case study matched (e.g. QTY_AUTH,
// ORG_ID_CD, DT_TM_GRP). Multi-word expansions are space separated and are
// split by ExpandAbbreviation.
var abbreviations = map[string]string{
	"acct":   "account",
	"addr":   "address",
	"adm":    "administrative",
	"admin":  "administrative",
	"alt":    "altitude",
	"amt":    "amount",
	"approx": "approximate",
	"attr":   "attribute",
	"auth":   "authorized",
	"avg":    "average",
	"bldg":   "building",
	"cat":    "category",
	"cd":     "code",
	"cfg":    "configuration",
	"cmd":    "command",
	"cnt":    "count",
	"comm":   "communication",
	"coord":  "coordinate",
	"ctry":   "country",
	"curr":   "current",
	"dec":    "decimal",
	"def":    "definition",
	"dept":   "department",
	"desc":   "description",
	"descr":  "description",
	"dest":   "destination",
	"dir":    "direction",
	"dist":   "distance",
	"dob":    "date of birth",
	"doc":    "document",
	"dod":    "department of defense",
	"dt":     "date",
	"dtg":    "date time group",
	"dttm":   "date time",
	"elev":   "elevation",
	"eqp":    "equipment",
	"eqpt":   "equipment",
	"est":    "estimated",
	"fac":    "facility",
	"fname":  "first name",
	"freq":   "frequency",
	"geo":    "geographic",
	"gp":     "group",
	"grp":    "group",
	"hosp":   "hospital",
	"hq":     "headquarters",
	"id":     "identifier",
	"ident":  "identifier",
	"idx":    "index",
	"img":    "image",
	"info":   "information",
	"lat":    "latitude",
	"lname":  "last name",
	"loc":    "location",
	"lon":    "longitude",
	"lvl":    "level",
	"max":    "maximum",
	"med":    "medical",
	"mfg":    "manufacturing",
	"mgr":    "manager",
	"mil":    "military",
	"min":    "minimum",
	"msg":    "message",
	"mun":    "munition",
	"nat":    "national",
	"nbr":    "number",
	"nm":     "name",
	"no":     "number",
	"num":    "number",
	"obj":    "object",
	"obs":    "observation",
	"op":     "operation",
	"opn":    "operation",
	"org":    "organization",
	"orig":   "origin",
	"pct":    "percent",
	"per":    "person",
	"perf":   "performance",
	"pers":   "person",
	"phys":   "physical",
	"pos":    "position",
	"pri":    "priority",
	"prov":   "province",
	"pt":     "point",
	"qty":    "quantity",
	"rcv":    "receive",
	"rec":    "record",
	"ref":    "reference",
	"reg":    "region",
	"rel":    "relationship",
	"rep":    "report",
	"req":    "required",
	"rnk":    "rank",
	"rte":    "route",
	"sec":    "security",
	"seq":    "sequence",
	"sig":    "signal",
	"spec":   "specification",
	"sqdn":   "squadron",
	"src":    "source",
	"stat":   "status",
	"sta":    "station",
	"std":    "standard",
	"svc":    "service",
	"sys":    "system",
	"tel":    "telephone",
	"temp":   "temperature",
	"tm":     "time",
	"tot":    "total",
	"trk":    "track",
	"txt":    "text",
	"typ":    "type",
	"uid":    "unique identifier",
	"uom":    "unit of measure",
	"upd":    "update",
	"usr":    "user",
	"veh":    "vehicle",
	"vel":    "velocity",
	"ver":    "version",
	"wpn":    "weapon",
	"wt":     "weight",
	"xfer":   "transfer",
	"xmit":   "transmit",
}

// ExpandAbbreviation returns the expansion of tok if it is a known
// enterprise abbreviation, split into individual words; otherwise it
// returns the token itself as a single-element slice. Stopwords inside
// multi-word expansions ("date of birth") are dropped.
func ExpandAbbreviation(tok string) []string {
	exp, ok := abbreviations[tok]
	if !ok {
		return []string{tok}
	}
	if !strings.Contains(exp, " ") {
		return []string{exp}
	}
	parts := strings.Split(exp, " ")
	out := parts[:0]
	for _, p := range parts {
		if !IsStopword(p) {
			out = append(out, p)
		}
	}
	return out
}

// synonyms groups tokens that denote the same concept under different
// names. Lookup is symmetric: two tokens are synonymous when they share a
// group. Entries are stored stemmed because matching happens after the
// Porter stemmer runs.
var synonymGroups = [][]string{
	{"person", "individual", "people", "human"},
	{"vehicle", "conveyance", "transport"},
	{"organization", "organisation", "agency", "unit"},
	{"event", "incident", "occurrence", "activity"},
	{"location", "place", "position", "site"},
	{"identifier", "key", "code"},
	{"name", "designation", "title", "label"},
	{"start", "begin", "first", "initial"},
	{"end", "stop", "last", "final", "terminate"},
	{"date", "day"},
	{"time", "datetime"},
	{"amount", "quantity", "count", "total"},
	{"type", "kind", "category", "class"},
	{"status", "state", "condition"},
	{"weapon", "armament", "munition"},
	{"facility", "installation", "building"},
	{"equipment", "material", "materiel", "asset"},
	{"message", "communication", "signal"},
	{"route", "path", "course"},
	{"mission", "task", "operation", "sortie"},
	{"supply", "provision", "stock"},
	{"report", "summary", "record"},
	{"country", "nation"},
	{"rank", "grade"},
	{"speed", "velocity"},
	{"height", "altitude", "elevation"},
	{"family", "last", "surname"},
	{"given", "first"},
}

// synonymIndex maps each stemmed token to the set of synonym groups it
// belongs to. A token may appear in several groups ("last" is both an
// end-marker and a surname marker).
var synonymIndex = buildSynonymIndex()

func buildSynonymIndex() map[string][]int {
	idx := make(map[string][]int)
	for gi, group := range synonymGroups {
		for _, w := range group {
			s := Stem(w)
			idx[s] = append(idx[s], gi)
		}
	}
	return idx
}
