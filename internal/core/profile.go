package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"harmony/internal/schema"
	"harmony/internal/text"
)

// A CompiledProfile is the reusable, schema-local half of linguistic
// preprocessing: normalized name tokens, interned token IDs and synonym
// masks, rune and trigram forms for character metrics, path token sets,
// and the schema's own TF-IDF document statistics — everything Match
// needs that does not depend on which *other* schema it is paired with.
// Profiles are immutable once built (apart from the sparse-retrieval
// keys, built once on the first sparse match), keyed by
// schema.Fingerprint, safe for concurrent use, and cheap to pair:
// PairProfiles hands out the profile's own element views and only
// merges the two vocabularies and computes per-element TF-IDF vectors
// under the joint IDF, bit for bit as a corpus built over both schemata
// from scratch would weigh them.
//
// Per-element data lives in arena-style contiguous slices (one terms /
// tf / weight arena per schema) so the hot loop walks dense memory.
type CompiledProfile struct {
	// Schema is the compiled schema; element views index by element ID.
	Schema *schema.Schema

	fp    string        // Schema.Fingerprint() at compile time
	views []ElementView // by element ID; shared by every pairing

	// Document model: the schema-side TF-IDF sufficient statistics.
	// vocabTerms is sorted ascending; vocabDF[i] is the number of this
	// schema's documents containing vocabTerms[i].
	vocabTerms []string
	vocabDF    []int32
	numDocs    int

	// Per-element document arena: element e's distinct doc terms occupy
	// [elemStart[e], elemStart[e+1]) of elemTerms (sorted ascending
	// within the element), with raw term frequency elemTF, sublinear
	// weight elemTFW = 1 + ln(tf), and elemVocab the index into
	// vocabTerms.
	elemStart []int32
	elemTerms []string
	elemTF    []int32
	elemTFW   []float64
	elemVocab []int32

	// The sparse-retrieval keys, built by sparseKeys on the profile's
	// first sparse match.
	sparseOnce sync.Once
	sparse     *profileKeys
}

// Fingerprint returns the schema fingerprint the profile was compiled
// from — the cache identity of the profile.
func (p *CompiledProfile) Fingerprint() string { return p.fp }

// Len returns the number of compiled element views.
func (p *CompiledProfile) Len() int { return len(p.views) }

// sparseKeys returns the profile's sparse-retrieval keys, building them
// on the first call. Only sparse matches read them; the corpus compiles
// and scores its many candidate profiles dense, so compilation does not
// build them.
func (p *CompiledProfile) sparseKeys() *profileKeys {
	p.sparseOnce.Do(func() { p.sparse = buildProfileKeys(p) })
	return p.sparse
}

// elemLex is the lexed form of one element — the output of the
// text-processing stage of compilation and the unit of profile
// persistence. CompileSchema produces it by tokenizing; DecodeProfile
// reads it back from a stored blob; compileFrom derives everything
// else (interning, name shapes, runes, trigrams, vocabulary) from it.
type elemLex struct {
	name     []string // normalized name tokens
	raw      string   // delimiter-stripped raw name (acronym detection)
	docTerms []string // distinct doc-stream terms, sorted ascending
	docTF    []int32  // term frequency per docTerms entry
	docCount int      // total doc-stream tokens (duplicates included)
}

// CompileSchema runs linguistic preprocessing over one schema and
// returns its compiled profile. Name lexing goes through text.LexName,
// which memoizes both the normalized token stream and the raw acronym
// form — across a corpus the same element names recur constantly, so
// most elements compile without touching the tokenizer or stemmer.
func CompileSchema(s *schema.Schema) *CompiledProfile {
	return compileFrom(s, s.Fingerprint(), lexSchema(s))
}

// lexSchema runs the text-processing stage of compilation over every
// element of s.
func lexSchema(s *schema.Schema) []elemLex {
	lex := make([]elemLex, s.Len())
	for i, e := range s.Elements() {
		name, raw := text.LexName(e.Name)
		doc := text.NormalizeDoc(e.Doc)
		tf := make(map[string]int32, len(doc)+len(name))
		for _, t := range doc {
			tf[t]++
		}
		for _, t := range name {
			tf[t]++
		}
		terms := make([]string, 0, len(tf))
		for t := range tf {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		tfs := make([]int32, len(terms))
		for k, t := range terms {
			tfs[k] = tf[t]
		}
		lex[i] = elemLex{name: name, raw: raw, docTerms: terms, docTF: tfs, docCount: len(doc) + len(name)}
	}
	return lex
}

// compileFrom assembles the profile of s, whose fingerprint is fp, from
// lexed elements: builds the schema-side vocabulary, packs the
// per-element document arena, interns name and path tokens, and wires
// the element views.
func compileFrom(s *schema.Schema, fp string, lex []elemLex) *CompiledProfile {
	n := s.Len()
	p := &CompiledProfile{Schema: s, fp: fp, numDocs: n}

	// Vocabulary: document frequency over the schema's elements.
	df := make(map[string]int32, 64)
	total := 0
	for i := range lex {
		total += len(lex[i].docTerms)
		for _, t := range lex[i].docTerms {
			df[t]++
		}
	}
	p.vocabTerms = make([]string, 0, len(df))
	for t := range df {
		p.vocabTerms = append(p.vocabTerms, t)
	}
	sort.Strings(p.vocabTerms)
	p.vocabDF = make([]int32, len(p.vocabTerms))
	vidx := make(map[string]int32, len(p.vocabTerms))
	for i, t := range p.vocabTerms {
		p.vocabDF[i] = df[t]
		vidx[t] = int32(i)
	}

	// Document arena.
	p.elemStart = make([]int32, n+1)
	p.elemTerms = make([]string, 0, total)
	p.elemTF = make([]int32, 0, total)
	p.elemTFW = make([]float64, 0, total)
	p.elemVocab = make([]int32, 0, total)
	for i := range lex {
		p.elemStart[i] = int32(len(p.elemTerms))
		for k, t := range lex[i].docTerms {
			tf := lex[i].docTF[k]
			p.elemTerms = append(p.elemTerms, t)
			p.elemTF = append(p.elemTF, tf)
			p.elemTFW = append(p.elemTFW, 1+math.Log(float64(tf)))
			p.elemVocab = append(p.elemVocab, vidx[t])
		}
	}
	p.elemStart[n] = int32(len(p.elemTerms))

	// Token-ID arena for the distinct name and path ID/mask slices. The
	// capacity is an exact upper bound on everything appended below, so
	// the backing array never reallocates and the per-element subslices
	// taken mid-loop stay valid.
	bound := 0
	els := s.Elements()
	for i, e := range els {
		bound += len(lex[i].name)
		for a := e.Parent; a != nil; a = a.Parent {
			bound += len(lex[a.ID].name)
		}
		bound += len(lex[i].name)
	}
	idArena := make([]uint32, 0, bound)
	maskArena := make([]uint32, 0, bound)

	var fullIDs, fullMasks []uint32
	var pathBuf []string
	p.views = make([]ElementView, n)
	for i, e := range els {
		name := lex[i].name
		joined := join(name)
		v := &p.views[i]
		*v = ElementView{
			El:            e,
			NameTokens:    name,
			JoinedName:    joined,
			HasDoc:        e.Doc != "",
			RawAcronym:    lex[i].raw,
			DocTokenCount: lex[i].docCount,
		}
		v.nameRunes = []rune(joined)
		v.trigrams = text.TrigramsPacked(v.nameRunes)
		v.acronym = text.Acronym(name)

		fullIDs, fullMasks = internTokens(name, fullIDs[:0], fullMasks[:0])
		v.nameShape = shapeOf(fullIDs)
		v.name = appendDistinct(&idArena, &maskArena, fullIDs, fullMasks)

		// Path tokens: ancestors' name tokens root-first, then own.
		pathBuf = pathBuf[:0]
		if e.Parent != nil {
			anc := e.Ancestors()
			for j := len(anc) - 1; j >= 0; j-- {
				pathBuf = append(pathBuf, lex[anc[j].ID].name...)
			}
		}
		pathBuf = append(pathBuf, name...)
		fullIDs, fullMasks = internTokens(pathBuf, fullIDs[:0], fullMasks[:0])
		v.path = appendDistinct(&idArena, &maskArena, fullIDs, fullMasks)
	}

	// Wire the parent/child view pointers for the structure voter. Each
	// element is at most one container's child, so an arena of n
	// signatures holds every container's childSigs without growing.
	sigArena := make([]text.TokenSig, 0, n)
	for i, e := range els {
		if e.Parent != nil {
			p.views[i].parent = &p.views[e.Parent.ID]
		}
		if len(e.Children) > 0 {
			ch := make([]*ElementView, len(e.Children))
			lo := len(sigArena)
			for ci, c := range e.Children {
				ch[ci] = &p.views[c.ID]
				sigArena = append(sigArena, p.views[c.ID].name.Sig)
			}
			p.views[i].children = ch
			p.views[i].childSigs = sigArena[lo:len(sigArena):len(sigArena)]
		}
	}
	return p
}

// internTokens interns every token, appending IDs and masks to the
// given scratch slices.
func internTokens(toks []string, ids, masks []uint32) ([]uint32, []uint32) {
	for _, t := range toks {
		id, mask := text.InternMasked(t)
		ids = append(ids, id)
		masks = append(masks, mask)
	}
	return ids, masks
}

// appendDistinct appends the first occurrence of each ID (with its
// mask) to the arenas and returns the token set over capped subslices
// of the appended range, in first-occurrence order: the distinct lists
// the token kernels expect.
func appendDistinct(idArena, maskArena *[]uint32, ids, masks []uint32) text.TokenSet {
	lo := len(*idArena)
	for k, id := range ids {
		dup := false
		for _, prev := range (*idArena)[lo:] {
			if prev == id {
				dup = true
				break
			}
		}
		if !dup {
			*idArena = append(*idArena, id)
			*maskArena = append(*maskArena, masks[k])
		}
	}
	hi := len(*idArena)
	return text.NewTokenSet((*idArena)[lo:hi:hi], (*maskArena)[lo:hi:hi])
}

// --- shapes ----------------------------------------------------------------

// The shape table interns full name token-ID sequences process-wide.
// Two element names with the same token sequence share a shape, and the
// hybrid name similarity of two views is a pure function of their shape
// pair — which is what makes the per-worker memo in pairScratch valid
// across matches and schemas. Only names are interned: they repeat
// heavily across schemata, so the table grows with the distinct name
// vocabulary, not with the element count. Shapes start at 1, so no
// shape-pair key is 0, the memo's empty-slot marker.
var shapes = struct {
	mu   sync.RWMutex
	m    map[string]int32
	next int32
}{m: make(map[string]int32, 1024), next: 1}

func shapeOf(ids []uint32) int32 {
	var arr [128]byte
	var buf []byte
	if 4*len(ids) <= len(arr) {
		buf = arr[:0]
	} else {
		buf = make([]byte, 0, 4*len(ids))
	}
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	shapes.mu.RLock()
	v, ok := shapes.m[string(buf)]
	shapes.mu.RUnlock()
	if ok {
		return v
	}
	shapes.mu.Lock()
	defer shapes.mu.Unlock()
	key := string(buf)
	if v, ok := shapes.m[key]; ok {
		return v
	}
	v = shapes.next
	shapes.next++
	shapes.m[key] = v
	return v
}

// --- pairing ---------------------------------------------------------------

// PairProfiles combines two compiled profiles into the pair of
// SchemaViews a match run consumes. Both sides hand out their profile's
// own element views; only the pair-dependent work runs here: the two
// sorted vocabularies are merged into a joint vocabulary with IDF over
// the union corpus (N = nA+nB documents, df summed), and each element's
// TF-IDF vector is computed under that IDF.
// Term entries are walked in ascending string order throughout, so
// weights, norms and cosine merge order — and therefore every score —
// are bit-identical to rebuilding the joint corpus from scratch.
func PairProfiles(pa, pb *CompiledProfile) (*SchemaView, *SchemaView) {
	na, nb := len(pa.vocabTerms), len(pb.vocabTerms)
	mapA := make([]int32, na)
	mapB := make([]int32, nb)
	jointIDF := make([]float64, 0, na+nb)
	nDocs := float64(pa.numDocs + pb.numDocs)
	i, j := 0, 0
	for i < na || j < nb {
		switch {
		case j >= nb || (i < na && pa.vocabTerms[i] < pb.vocabTerms[j]):
			mapA[i] = int32(len(jointIDF))
			jointIDF = append(jointIDF, math.Log(1+nDocs/float64(1+int(pa.vocabDF[i]))))
			i++
		case i >= na || pb.vocabTerms[j] < pa.vocabTerms[i]:
			mapB[j] = int32(len(jointIDF))
			jointIDF = append(jointIDF, math.Log(1+nDocs/float64(1+int(pb.vocabDF[j]))))
			j++
		default:
			k := int32(len(jointIDF))
			mapA[i] = k
			mapB[j] = k
			jointIDF = append(jointIDF, math.Log(1+nDocs/float64(1+int(pa.vocabDF[i])+int(pb.vocabDF[j]))))
			i++
			j++
		}
	}
	return pairView(pa, mapA, jointIDF), pairView(pb, mapB, jointIDF)
}

// pairView is one side of a pairing: the profile's views plus each
// element's document vector under the joint IDF. Weight and joint-ID
// storage is one arena per schema, sliced per element.
func pairView(p *CompiledProfile, vmap []int32, jointIDF []float64) *SchemaView {
	n := len(p.views)
	docs := make([]text.Vector, n)
	total := int(p.elemStart[n])
	weights := make([]float64, total)
	ids := make([]int32, total)
	for e := 0; e < n; e++ {
		lo, hi := int(p.elemStart[e]), int(p.elemStart[e+1])
		if lo == hi {
			continue // no doc stream: zero vector, exactly like Corpus.Vector(nil)
		}
		var norm float64
		for k := lo; k < hi; k++ {
			id := vmap[p.elemVocab[k]]
			ids[k] = id
			w := p.elemTFW[k] * jointIDF[id]
			weights[k] = w
			norm += w * w
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for k := lo; k < hi; k++ {
				weights[k] /= norm
			}
		}
		docs[e] = text.MakeVector(p.elemTerms[lo:hi], ids[lo:hi], weights[lo:hi])
	}
	return &SchemaView{Schema: p.Schema, profile: p, views: p.views, docs: docs}
}

// --- persistence -----------------------------------------------------------

// profileBlobVersion versions the persisted profile encoding; decoding
// rejects other versions so stale artifacts are recompiled, not
// misread.
const profileBlobVersion = 1

type profileBlobElem struct {
	Name  []string `json:"n,omitempty"`
	Raw   string   `json:"r,omitempty"`
	Terms []string `json:"t,omitempty"`
	TF    []int32  `json:"f,omitempty"`
	Count int      `json:"c,omitempty"`
}

type profileBlob struct {
	V           int               `json:"v"`
	Fingerprint string            `json:"fp"`
	Elements    []profileBlobElem `json:"elements"`
}

// Encode serializes the text-processing output of compilation (the
// schema-content-determined part). Interned IDs, shapes and vocabulary
// indices are process-local and derived again on decode. The daemon no
// longer persists profiles (decoding costs more than CompileSchema); the
// blob format is kept for the benchmark's traced replay.
func (p *CompiledProfile) Encode() []byte {
	blob := profileBlob{V: profileBlobVersion, Fingerprint: p.fp, Elements: make([]profileBlobElem, len(p.views))}
	for i := range p.views {
		v := &p.views[i]
		lo, hi := p.elemStart[i], p.elemStart[i+1]
		blob.Elements[i] = profileBlobElem{
			Name:  v.NameTokens,
			Raw:   v.RawAcronym,
			Terms: p.elemTerms[lo:hi],
			TF:    p.elemTF[lo:hi],
			Count: v.DocTokenCount,
		}
	}
	data, err := json.Marshal(blob)
	if err != nil {
		// Marshal of plain slices/strings cannot fail; keep the signature
		// allocation-friendly for the persist hook.
		panic(err)
	}
	return data
}

// DecodeProfile rebuilds a compiled profile for s from a blob produced
// by Encode. The blob must match the schema (fingerprint and element
// count) and pass structural validation; any mismatch returns an error
// and the caller should recompile from source instead. It runs the same
// derivation as CompileSchema after a JSON decode, so it is slower than
// compiling; the daemon no longer calls it.
func DecodeProfile(s *schema.Schema, data []byte) (*CompiledProfile, error) {
	var blob profileBlob
	if err := json.Unmarshal(data, &blob); err != nil {
		return nil, fmt.Errorf("profile blob: %w", err)
	}
	if blob.V != profileBlobVersion {
		return nil, fmt.Errorf("profile blob version %d, want %d", blob.V, profileBlobVersion)
	}
	fp := s.Fingerprint()
	if blob.Fingerprint != fp {
		return nil, fmt.Errorf("profile blob fingerprint %s does not match schema %s", blob.Fingerprint, fp)
	}
	if len(blob.Elements) != s.Len() {
		return nil, fmt.Errorf("profile blob has %d elements, schema has %d", len(blob.Elements), s.Len())
	}
	lex := make([]elemLex, len(blob.Elements))
	for i, be := range blob.Elements {
		if len(be.TF) != len(be.Terms) {
			return nil, fmt.Errorf("element %d: %d terms but %d frequencies", i, len(be.Terms), len(be.TF))
		}
		for k, t := range be.Terms {
			if k > 0 && be.Terms[k-1] >= t {
				return nil, fmt.Errorf("element %d: terms not sorted/distinct at %d", i, k)
			}
			if be.TF[k] < 1 {
				return nil, fmt.Errorf("element %d: non-positive tf for %q", i, t)
			}
		}
		lex[i] = elemLex{name: be.Name, raw: be.Raw, docTerms: be.Terms, docTF: be.TF, docCount: be.Count}
	}
	return compileFrom(s, fp, lex), nil
}
