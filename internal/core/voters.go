package core

import (
	"math/bits"

	"harmony/internal/schema"
	"harmony/internal/text"
)

// Voter scores one [source, target] element pair using a single strategy.
// Implementations must be safe for concurrent use: Vote is called from
// multiple goroutines during a match, each with its own scratch.
type Voter interface {
	// Name identifies the voter in explanations and reports.
	Name() string
	// Vote returns the voter's opinion about the pair: src is a view of
	// sc.src, dst one of sc.dst. sc is the calling worker's scratch,
	// bound to that pairing (it holds the pairing's document vectors and
	// the name-similarity memo). A voter that has no applicable evidence
	// returns Abstain.
	Vote(src, dst *ElementView, sc *pairScratch) Vote
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
func (NameVoter) Vote(src, dst *ElementView, sc *pairScratch) Vote {
	if len(src.NameTokens) == 0 || len(dst.NameTokens) == 0 {
		return Abstain
	}
	sim := hybridSimCached(src, dst, sc)
	ev := float64(min(len(src.name.IDs), len(dst.name.IDs)))
	// Character-level length adds a little evidence: longer names that
	// agree are less likely to agree by chance.
	ev += float64(min(len(src.JoinedName), len(dst.JoinedName))) / 12.0
	// Exact (normalized) name equality is qualitatively stronger evidence
	// than fuzzy similarity — identical names rarely collide by accident.
	if src.JoinedName == dst.JoinedName && src.JoinedName != "" {
		ev += 2
	}
	return Vote{Ratio: sim, Evidence: ev}
}

// hybridNameSimFlat is the composite name metric of the name voter: the
// maximum of synonym-aware token overlap, token Jaccard, and damped
// character-level similarity (the mean of Jaro-Winkler and trigram Dice
// over the joined normalized names, times 0.9). Token and character
// levels together make it robust to abbreviation noise that
// tokenization cannot repair, and the damping keeps a coincidental
// character-level resemblance from dominating. When token evidence
// already reaches 0.9 the character level cannot win — char is ≤ 1,
// damped by 0.9, and compared strictly — so it is skipped entirely.
func hybridNameSimFlat(a, b *ElementView) float64 {
	best, jac := a.name.OverlapJaccard(&b.name)
	if jac > best {
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
	key := pairKey(a.nameShape, b.nameShape)
	if v, ok := sc.hybrid.get(key); ok {
		return v
	}
	v := hybridNameSimFlat(a, b)
	sc.hybrid.put(key, v)
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
func (DocVoter) Vote(src, dst *ElementView, sc *pairScratch) Vote {
	if !src.HasDoc || !dst.HasDoc {
		return Abstain
	}
	a, b := sc.src.docs[src.El.ID], sc.dst.docs[dst.El.ID]
	if a.IsZero() || b.IsZero() {
		return Abstain
	}
	cos := text.Cosine(a, b)
	ev := min(float64(min(src.DocTokenCount, dst.DocTokenCount))/2.0, 12)
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
func (PathVoter) Vote(src, dst *ElementView, _ *pairScratch) Vote {
	if len(src.path.IDs) == 0 || len(dst.path.IDs) == 0 {
		return Abstain
	}
	return pathVote(src, dst)
}

// pathVote blends synonym-aware overlap and Jaccard of the two paths.
// Most path pairs share no token: their signatures prove both metrics 0
// without a scan (text.TokenSet.OverlapJaccard).
func pathVote(src, dst *ElementView) Vote {
	syn, jac := src.path.OverlapJaccard(&dst.path)
	sim := 0.6*syn + 0.4*jac
	ev := float64(min(len(src.path.IDs), len(dst.path.IDs))) * 0.8
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
func (TypeVoter) Vote(src, dst *ElementView, _ *pairScratch) Vote {
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

// Vote implements Voter. A container pair scores the children-alignment
// total sparse candidate generation recorded in sc when there is one,
// and aligns the children itself otherwise.
func (StructureVoter) Vote(src, dst *ElementView, sc *pairScratch) Vote {
	a, b := src.El, dst.El
	switch {
	case !a.IsLeaf() && !b.IsLeaf():
		if sc.aligned {
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

// containerVote greedily aligns the children of a container pair by
// synonym-aware token overlap and scores the alignment over the smaller
// child set. The structure voter calls it when its scratch carries no
// recorded total: in dense scoring, MatchCross and Explain. Sparse
// scoring reuses the totals candidate generation recorded instead
// (alignmentVote).
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
	n := min(len(src.children), len(dst.children), maxAlignChildren)
	return Vote{Ratio: total / float64(n), Evidence: float64(n) * 0.9}
}

// maxAlignChildren caps the per-pair children-alignment work of both the
// structure voter and the sparse candidate expansion.
const maxAlignChildren = 64

// greedyAlignChildren greedily aligns two containers' children by
// synonym-aware token overlap, calling fn for every aligned (ci, cj)
// child-index pair with its similarity. av and bv are compiled views;
// their children are views of the same profiles. In sparse mode it runs
// once per candidate container pair, in candidate generation: the
// aligned pairs become candidates and the summed similarity is the
// total the structure voter scores (alignmentVote). Every other
// structure vote runs it from containerVote.
//
// Most child pairs share no token. The containers' packed child
// signatures (childSigs) skip those pairs without touching a child view:
// their overlap is 0, and a 0 never beats best under the strict >. A
// row's scan stops at an overlap of 1, which no later child can beat.
func greedyAlignChildren(av, bv *ElementView, fn func(ci, cj int, sim float64)) {
	ca, cb := av.children, bv.children
	na, nb := min(len(ca), maxAlignChildren), min(len(cb), maxAlignChildren)
	sa, sb := av.childSigs[:na], bv.childSigs[:nb]
	free := ^uint64(0) >> (64 - nb) // unaligned children of b; nb ≤ 64
	for i, sig := range sa {
		best, bestJ := 0.0, -1
		for f := free; f != 0; f &= f - 1 {
			j := bits.TrailingZeros64(f)
			if sig.Disjoint(sb[j]) {
				continue
			}
			if s := ca[i].name.Overlap(&cb[j].name); s > best {
				best, bestJ = s, j
				if best == 1 {
					break
				}
			}
		}
		if bestJ >= 0 {
			free &^= 1 << bestJ
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
func (AcronymVoter) Vote(src, dst *ElementView, _ *pairScratch) Vote {
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
