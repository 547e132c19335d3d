package core

import (
	"harmony/internal/schema"
	"harmony/internal/text"
)

// Voter scores one [source, target] element pair using a single strategy.
// Implementations must be safe for concurrent use: Vote is called from
// multiple goroutines during a match.
type Voter interface {
	// Name identifies the voter in explanations and reports.
	Name() string
	// Vote returns the voter's opinion about the pair. A voter that has no
	// applicable evidence returns Abstain.
	Vote(src, dst *ElementView) Vote
}

// contextVoter is the engine-internal fast path: voters that can reuse
// a per-worker pairScratch (the name-similarity memo keyed by name
// shape) implement it, and the scoring loops dispatch through it. Vote
// and voteCtx return identical results — voteCtx(src, dst, nil) is the
// definition of Vote — so Explain and external callers lose nothing.
type contextVoter interface {
	voteCtx(src, dst *ElementView, sc *pairScratch) Vote
}

// WeightedVoter pairs a voter with its merge weight.
type WeightedVoter struct {
	Voter  Voter
	Weight float64
}

// ---------------------------------------------------------------------------
// Name voter

// NameVoter compares normalized element names with a hybrid token- and
// character-level metric. It is the workhorse voter: schema element names
// carry most of the matchable signal in documentation-poor schemata.
type NameVoter struct{}

// Name implements Voter.
func (NameVoter) Name() string { return "name" }

// Vote implements Voter. Evidence grows with the number of distinct tokens
// compared, so a 4-token name agreeing with a 4-token name yields a score
// much closer to +1 than two single-token names agreeing.
func (v NameVoter) Vote(src, dst *ElementView) Vote { return v.voteCtx(src, dst, nil) }

func (NameVoter) voteCtx(src, dst *ElementView, sc *pairScratch) Vote {
	if len(src.NameTokens) == 0 || len(dst.NameTokens) == 0 {
		return Abstain
	}
	sim := hybridSimCached(src, dst, sc)
	ev := float64(minInt(len(src.nameIDs), len(dst.nameIDs)))
	// Character-level length adds a little evidence: longer names that
	// agree are less likely to agree by chance.
	ev += float64(minInt(len(src.JoinedName), len(dst.JoinedName))) / 12.0
	// Exact (normalized) name equality is qualitatively stronger evidence
	// than fuzzy similarity — identical names rarely collide by accident.
	if src.JoinedName == dst.JoinedName && src.JoinedName != "" {
		ev += 2
	}
	return Vote{Ratio: sim, Evidence: ev}
}

// hybridNameSimFlat is HybridNameSimilarity over compiled views: the
// maximum of synonym-aware token overlap, token Jaccard, and damped
// character-level similarity (Jaro-Winkler + trigram Dice over the
// joined names). When token evidence already reaches 0.9 the character
// level cannot win — char is ≤ 1, damped by 0.9, and compared strictly
// — so it is skipped entirely.
func hybridNameSimFlat(a, b *ElementView) float64 {
	best := text.SynonymOverlapIDs(a.nameIDs, a.nameMasks, b.nameIDs, b.nameMasks)
	if jac := text.JaccardIDs(a.nameIDs, b.nameIDs); jac > best {
		best = jac
	}
	if best >= 0.9 {
		return best
	}
	jw := text.JaroWinklerRunes(a.nameRunes, b.nameRunes)
	var dice float64
	switch {
	case a.JoinedName == b.JoinedName:
		dice = 1
	case len(a.trigrams) == 0 || len(b.trigrams) == 0:
		dice = 0 // too short for trigrams and not equal
	default:
		dice = text.DiceSortedPacked(a.trigrams, b.trigrams)
	}
	if c := (jw + dice) / 2 * 0.9; c > best {
		best = c
	}
	return best
}

// hybridSimCached memoizes hybridNameSimFlat by name-shape pair in the
// worker's scratch. The metric is a pure function of the two token
// sequences, which the shapes intern process-wide, so memo entries stay
// valid across matches and schemas.
func hybridSimCached(a, b *ElementView, sc *pairScratch) float64 {
	if sc == nil || a.nameShape == 0 || b.nameShape == 0 {
		return hybridNameSimFlat(a, b)
	}
	key := pairKey(a.nameShape, b.nameShape)
	if v, ok := sc.hybrid[key]; ok {
		return v
	}
	v := hybridNameSimFlat(a, b)
	if len(sc.hybrid) < maxMemoEntries {
		sc.hybrid[key] = v
	}
	return v
}

// ---------------------------------------------------------------------------
// Documentation voter

// DocVoter compares the TF-IDF vectors of element documentation. Following
// the paper, Harmony "relies heavily on textual documentation to identify
// candidate correspondences instead of data instances": in the government
// sector documentation is easier to obtain than data.
type DocVoter struct{}

// Name implements Voter.
func (DocVoter) Name() string { return "documentation" }

// Vote implements Voter. The evidence is the size of the smaller document:
// two rich documentation strings that disagree push the score firmly
// negative, while two near-empty ones barely move it.
func (DocVoter) Vote(src, dst *ElementView) Vote {
	if !src.HasDoc || !dst.HasDoc || src.DocVector.IsZero() || dst.DocVector.IsZero() {
		return Abstain
	}
	cos := text.Cosine(src.DocVector, dst.DocVector)
	ev := float64(minInt(src.DocTokenCount, dst.DocTokenCount)) / 2.0
	if ev > 12 {
		ev = 12
	}
	return Vote{Ratio: cos, Evidence: ev}
}

// ---------------------------------------------------------------------------
// Path voter

// PathVoter compares full element paths (ancestor names included), giving
// contextual evidence: Person/Name and Vehicle/Name share a name token but
// differ in path.
type PathVoter struct{}

// Name implements Voter.
func (PathVoter) Name() string { return "path" }

// Vote implements Voter.
func (PathVoter) Vote(src, dst *ElementView) Vote {
	if len(src.pathIDs) == 0 || len(dst.pathIDs) == 0 {
		return Abstain
	}
	return pathVote(src, dst)
}

func pathVote(src, dst *ElementView) Vote {
	sim := 0.6*text.SynonymOverlapIDs(src.pathIDs, src.pathMasks, dst.pathIDs, dst.pathMasks) +
		0.4*text.JaccardIDs(src.pathIDs, dst.pathIDs)
	ev := float64(minInt(len(src.pathIDs), len(dst.pathIDs))) * 0.8
	return Vote{Ratio: sim, Evidence: ev}
}

// ---------------------------------------------------------------------------
// Type voter

// TypeVoter scores normalized data-type compatibility. Types are weak
// evidence — many unrelated columns share a type — so the vote carries
// deliberately small evidence mass, but a hard type conflict (date vs
// binary) is real counter-evidence.
type TypeVoter struct{}

// Name implements Voter.
func (TypeVoter) Name() string { return "type" }

// Vote implements Voter.
func (TypeVoter) Vote(src, dst *ElementView) Vote {
	ta, tb := src.El.Type, dst.El.Type
	if ta == schema.TypeNone || tb == schema.TypeNone {
		return Abstain
	}
	switch {
	case ta == tb:
		return Vote{Ratio: 0.70, Evidence: 1}
	case typeClass(ta) == typeClass(tb):
		return Vote{Ratio: 0.60, Evidence: 0.8}
	default:
		return Vote{Ratio: 0.25, Evidence: 0.8}
	}
}

// typeClass buckets data types into coarse families for near-compatibility.
func typeClass(t schema.DataType) int {
	switch t {
	case schema.TypeString, schema.TypeText, schema.TypeIdentifier:
		return 1 // textual
	case schema.TypeInteger, schema.TypeDecimal, schema.TypeBoolean:
		return 2 // numeric
	case schema.TypeDate, schema.TypeTime, schema.TypeDateTime:
		return 3 // temporal
	case schema.TypeBinary:
		return 4
	}
	return 0
}

// ---------------------------------------------------------------------------
// Structure voter

// StructureVoter scores container pairs by aligning their children's names:
// two tables whose columns mostly correspond are probably the same concept
// even if the table names differ. For leaf pairs it compares the parents'
// names, giving each leaf contextual structural evidence.
type StructureVoter struct{}

// Name implements Voter.
func (StructureVoter) Name() string { return "structure" }

// Vote implements Voter.
func (v StructureVoter) Vote(src, dst *ElementView) Vote { return v.voteCtx(src, dst, nil) }

func (StructureVoter) voteCtx(src, dst *ElementView, sc *pairScratch) Vote {
	a, b := src.El, dst.El
	switch {
	case !a.IsLeaf() && !b.IsLeaf():
		if sc != nil && sc.aligned {
			return alignmentVote(src, dst, sc.alignTotal)
		}
		return containerVote(src, dst)
	case a.IsLeaf() && b.IsLeaf():
		if src.parent == nil || dst.parent == nil {
			return Abstain
		}
		sim := hybridSimCached(src.parent, dst.parent, sc)
		return Vote{Ratio: sim, Evidence: 1.2}
	default:
		// container vs leaf: weak structural counter-evidence
		return Vote{Ratio: 0.35, Evidence: 0.6}
	}
}

// containerVote greedily aligns children by hybrid name similarity and
// scores the alignment quality over the smaller child set. The sparse
// scorer reuses the totals candidate generation recorded instead
// (alignmentVote); Vote, Explain and MatchCross align here.
func containerVote(src, dst *ElementView) Vote {
	var total float64
	greedyAlignChildren(src, dst, func(_, _ int, sim float64) {
		total += sim
	})
	return alignmentVote(src, dst, total)
}

// alignmentVote scores a container pair from its greedyAlignChildren
// total: the mean similarity over the smaller (capped) child set, with
// evidence growing with that set.
func alignmentVote(src, dst *ElementView, total float64) Vote {
	if len(src.children) == 0 || len(dst.children) == 0 {
		return Abstain
	}
	n := minInt(len(src.children), len(dst.children))
	if n > maxAlignChildren {
		n = maxAlignChildren
	}
	return Vote{Ratio: total / float64(n), Evidence: float64(n) * 0.9}
}

// maxAlignChildren caps the per-pair children-alignment work of both the
// structure voter and the sparse candidate expansion.
const maxAlignChildren = 64

// greedyAlignChildren greedily aligns two containers' children by
// synonym-aware token overlap, calling fn for every aligned (ci, cj)
// child-index pair with its similarity. In sparse mode it runs once per
// candidate container pair, in candidate generation: the aligned pairs
// become candidates and the summed similarity is the total the structure
// voter scores (alignmentVote). Dense scoring, Vote, Explain and
// MatchCross run it from containerVote.
func greedyAlignChildren(av, bv *ElementView, fn func(ci, cj int, sim float64)) {
	ca, cb := av.children, bv.children
	na, nb := len(ca), len(cb)
	if na > maxAlignChildren {
		na = maxAlignChildren
	}
	if nb > maxAlignChildren {
		nb = maxAlignChildren
	}
	var used [maxAlignChildren]bool
	for i := 0; i < na; i++ {
		best, bestJ := 0.0, -1
		x := ca[i]
		for j := 0; j < nb; j++ {
			if used[j] {
				continue
			}
			y := cb[j]
			if s := text.SynonymOverlapIDs(x.nameIDs, x.nameMasks, y.nameIDs, y.nameMasks); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 && best > 0 {
			used[bestJ] = true
			fn(i, bestJ, best)
		}
	}
}

// ---------------------------------------------------------------------------
// Acronym voter

// AcronymVoter detects acronym relationships between names: DTG matches
// Date_Time_Group because "dtg" is the acronym of the expanded tokens. It
// abstains unless an acronym relation actually holds, so it only ever adds
// positive evidence.
type AcronymVoter struct{}

// Name implements Voter.
func (AcronymVoter) Name() string { return "acronym" }

// Vote implements Voter.
func (AcronymVoter) Vote(src, dst *ElementView) Vote {
	if acronymOf(src, dst) || acronymOf(dst, src) {
		return Vote{Ratio: 0.95, Evidence: 2}
	}
	return Abstain
}

// acronymOf reports whether a's raw name is the acronym of b's tokens.
func acronymOf(a, b *ElementView) bool {
	if len(b.NameTokens) < 2 {
		return false
	}
	raw := a.RawAcronym
	if len(raw) < 2 || len(raw) > 8 {
		return false
	}
	return raw == b.acronym
}

// ---------------------------------------------------------------------------

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
