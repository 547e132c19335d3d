// Package text provides the linguistic preprocessing substrate used by the
// Harmony match engine: tokenization of schema element names, stopword
// removal, Porter stemming, abbreviation expansion, token interning, the
// name-similarity kernels the name voter runs over interned and packed
// names, and a TF-IDF corpus model over element documentation.
//
// The paper (Smith et al., CIDR 2009, §3.2) describes this stage as
// "linguistic preprocessing (e.g., tokenization and stemming) of element
// names and any associated documentation"; everything downstream (the match
// voters) consumes the normalized token streams produced here.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits a schema element name or a fragment of documentation into
// lower-cased word tokens. It understands the naming conventions that appear
// in enterprise schemata:
//
//   - delimiter-separated names: DATE_BEGIN, person-id, unit.code
//   - camelCase and PascalCase: dateBegin, PersonID
//   - digit runs are split off as their own tokens: DATE_BEGIN_156 yields
//     ["date", "begin", "156"]
//   - acronym runs followed by a word keep the acronym intact: HTTPServer
//     yields ["http", "server"]
//
// The result preserves input order and never contains empty tokens.
func Tokenize(s string) []string {
	if s == "" {
		return nil
	}
	var tokens []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			tokens = append(tokens, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r):
			if len(cur) > 0 && unicode.IsDigit(cur[len(cur)-1]) {
				flush()
			}
			if unicode.IsUpper(r) && len(cur) > 0 {
				prev := cur[len(cur)-1]
				if unicode.IsLower(prev) {
					// camelCase boundary: dateBegin -> date | Begin
					flush()
				} else if unicode.IsUpper(prev) && i+1 < len(runes) && unicode.IsLower(runes[i+1]) {
					// acronym-to-word boundary: HTTPServer -> HTTP | Server
					flush()
				}
			}
			cur = append(cur, r)
		case unicode.IsDigit(r):
			if len(cur) > 0 && !unicode.IsDigit(cur[len(cur)-1]) {
				flush()
			}
			cur = append(cur, r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// IsNumeric reports whether a token consists solely of decimal digits.
// Numeric suffixes such as the "156" in DATE_BEGIN_156 carry no semantic
// content for matching and are usually dropped by NormalizeTokens.
func IsNumeric(tok string) bool {
	if tok == "" {
		return false
	}
	for _, r := range tok {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// stopwords is the closed-class word list removed before matching. The list
// is intentionally small: schema names are terse, and over-aggressive
// removal destroys evidence.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true,
	"in": true, "is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "that": true, "the": true, "this": true, "to": true,
	"was": true, "which": true, "with": true,
}

// IsStopword reports whether tok is an English closed-class word that the
// preprocessing pipeline removes from documentation text.
func IsStopword(tok string) bool { return stopwords[strings.ToLower(tok)] }

// NormalizeOptions configures NormalizeTokens.
type NormalizeOptions struct {
	// Stem applies the Porter stemmer to each surviving token.
	Stem bool
	// DropStopwords removes closed-class English words.
	DropStopwords bool
	// DropNumeric removes all-digit tokens (e.g. the 156 in DATE_BEGIN_156).
	DropNumeric bool
	// ExpandAbbreviations rewrites known enterprise abbreviations
	// (qty -> quantity, org -> organization, ...) before stemming.
	ExpandAbbreviations bool
}

// DefaultNormalize is the option set used by the Harmony engine for element
// names: expand abbreviations, drop numeric suffixes, stem, keep stopwords
// (names rarely contain them, and "to"/"at" can be meaningful in names).
var DefaultNormalize = NormalizeOptions{
	Stem:                true,
	DropNumeric:         true,
	ExpandAbbreviations: true,
}

// DocNormalize is the option set used for documentation prose: like
// DefaultNormalize but with stopword removal enabled.
var DocNormalize = NormalizeOptions{
	Stem:                true,
	DropStopwords:       true,
	DropNumeric:         true,
	ExpandAbbreviations: true,
}

// NormalizeTokens applies the configured normalization steps to a token
// slice produced by Tokenize. The input slice is not modified.
func NormalizeTokens(tokens []string, opt NormalizeOptions) []string {
	out := make([]string, 0, len(tokens))
	for _, tok := range tokens {
		if opt.DropNumeric && IsNumeric(tok) {
			continue
		}
		if opt.DropStopwords && IsStopword(tok) {
			continue
		}
		if opt.ExpandAbbreviations {
			for _, exp := range ExpandAbbreviation(tok) {
				if opt.Stem {
					exp = Stem(exp)
				}
				if exp != "" {
					out = append(out, exp)
				}
			}
			continue
		}
		if opt.Stem {
			tok = Stem(tok)
		}
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// NormalizeName is the one-call form used throughout the engine: tokenize a
// schema element name and normalize with DefaultNormalize. Results are
// memoized (names repeat heavily across a corpus) — the returned slice is
// shared and must be treated as read-only; appending to it is safe.
func NormalizeName(name string) []string {
	norm, _ := LexName(name)
	return norm
}

// NormalizeDoc tokenizes and normalizes documentation prose with
// DocNormalize. Results are memoized like NormalizeName's.
func NormalizeDoc(doc string) []string {
	return normalizeDocMemo(doc)
}

// Acronym builds the acronym of a token slice: the concatenated first runes
// of each token ("date time group" -> "dtg").
func Acronym(tokens []string) string {
	var sb strings.Builder
	for _, t := range tokens {
		r := []rune(t)
		if len(r) > 0 {
			sb.WriteRune(r[0])
		}
	}
	return sb.String()
}
