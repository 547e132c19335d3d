package schema

import (
	"bytes"
	"unicode/utf16"
	"unicode/utf8"

	"harmony/internal/jsonlex"
	"harmony/internal/text"
)

// Fast path for ParseJSON.
//
// Bulk ingest parses one schema per NDJSON line, and encoding/json's
// reflective decode was the single largest per-schema cost left on the
// stream after lexical memoization. The interchange format is small and
// rigid — two object shapes, string fields, one array field each — so a
// hand-rolled recursive-descent scan that builds the Schema directly
// (no intermediate jsonSchema tree) decodes it several times faster and
// with a fraction of the allocations: object keys are matched as byte
// slices, kind/type/format names never materialize as strings, and
// element names and docs are interned so the same column name parsed
// ten thousand times is one allocation, not ten thousand.
//
// Correctness contract: the fast parser either produces exactly what
// encoding/json + schemaFromJSON would produce, or reports !ok and the
// caller falls back to that path. Anything unusual bails: keys with
// escapes or non-ASCII bytes (std matches field names case-insensitively
// with unicode folding), case-mismatched known keys, duplicate element
// array keys (std merges element-wise), invalid UTF-8 in used strings
// (std rewrites it to U+FFFD), out-of-order element keys (name after
// children), and every application-level error (empty names, children
// under a leaf kind) — the fallback re-derives the canonical error,
// including its precedence against syntax errors later in the document.
// Bailing is never wrong — only slower — so the fast path stays
// conservative.

// strIntern is a bounded canonical-string table. Element names and doc
// strings repeat massively across a schema corpus; returning one shared
// string per distinct value makes parsing allocation-free for repeated
// content. Restart parses snapshot schemas on every core at once, and a
// hit takes no lock: it reads the table's published map by the []byte
// key, which does not allocate either.
var strIntern text.Memo[string]

// internMaxKeyLen bounds the strings worth interning.
const internMaxKeyLen = 256

// internBytes returns the canonical string equal to b.
func internBytes(b []byte) string {
	if s, ok := strIntern.LoadBytes(b); ok {
		return s
	}
	s := string(b)
	if len(b) <= internMaxKeyLen {
		strIntern.Store(s, s)
	}
	return s
}

// fastParser scans one JSON document.
type fastParser struct {
	jsonlex.Lexer
}

// parseSchemaFast decodes data directly into a Schema, reporting
// ok=false when the input needs the encoding/json fallback (malformed
// or merely unusual — the caller cannot tell and must not care).
func parseSchemaFast(data []byte) (*Schema, bool) {
	p := &fastParser{jsonlex.Lexer{Data: data}}
	p.WS()
	s, ok := p.parseSchemaDirect()
	if !ok {
		return nil, false
	}
	p.WS()
	if p.Pos != len(p.Data) {
		return nil, false
	}
	return s, true
}

// keyLooksLike reports an ASCII case-insensitive match. An inexact match
// on a known key forces a bail upstream, because encoding/json would
// have case-folded it onto the field.
func keyLooksLike(key []byte, want string) bool {
	if len(key) != len(want) {
		return false
	}
	for i := 0; i < len(key); i++ {
		a, b := key[i], want[i]
		if a != b && a|0x20 != b|0x20 {
			return false
		}
	}
	return true
}

// parseStringValue decodes a string value, returning prev unchanged for
// a JSON null (encoding/json's behavior for *string-less decoding).
// With intern set the result is canonicalized through the intern table.
func (p *fastParser) parseStringValue(prev string, intern bool) (string, bool) {
	if p.Pos < len(p.Data) && p.Data[p.Pos] == 'n' {
		if p.Literal("null") {
			return prev, true
		}
		return "", false
	}
	b, ok := p.parseStringRaw()
	if !ok {
		return "", false
	}
	if intern {
		return internBytes(b), true
	}
	return string(b), true
}

// parseRawStringOrNull decodes a string value to raw bytes; null
// reports isNull with no bytes. Used for enum fields whose string never
// needs to materialize.
func (p *fastParser) parseRawStringOrNull() (b []byte, isNull, ok bool) {
	if p.Pos < len(p.Data) && p.Data[p.Pos] == 'n' {
		if p.Literal("null") {
			return nil, true, true
		}
		return nil, false, false
	}
	b, ok = p.parseStringRaw()
	return b, false, ok
}

// parseStringRaw decodes one JSON string to bytes. Strings without
// escapes return a sub-slice of the input (zero-copy; callers must copy
// before retaining). Invalid UTF-8 bails (std replaces it with U+FFFD,
// which this parser does not reproduce).
func (p *fastParser) parseStringRaw() ([]byte, bool) {
	if !p.Eat('"') {
		return nil, false
	}
	start := p.Pos
	ascii := true
	for p.Pos < len(p.Data) {
		c := p.Data[p.Pos]
		if c == '"' {
			seg := p.Data[start:p.Pos]
			p.Pos++
			if !ascii && !utf8.Valid(seg) {
				return nil, false
			}
			return seg, true
		}
		if c == '\\' {
			return p.unquoteFrom(start)
		}
		if c < 0x20 {
			return nil, false // control chars are invalid in JSON strings
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
		p.Pos++
	}
	return nil, false
}

// unquoteFrom decodes the rest of a string that contains escapes,
// starting over from the opening position.
func (p *fastParser) unquoteFrom(start int) ([]byte, bool) {
	buf := make([]byte, 0, 2*(p.Pos-start)+16)
	buf = append(buf, p.Data[start:p.Pos]...)
	for p.Pos < len(p.Data) {
		c := p.Data[p.Pos]
		switch {
		case c == '"':
			p.Pos++
			if !utf8.Valid(buf) {
				return nil, false
			}
			return buf, true
		case c == '\\':
			p.Pos++
			if p.Pos >= len(p.Data) {
				return nil, false
			}
			esc := p.Data[p.Pos]
			p.Pos++
			switch esc {
			case '"', '\\', '/':
				buf = append(buf, esc)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, ok := p.Hex4()
				if !ok {
					return nil, false
				}
				if utf16.IsSurrogate(r) {
					// A surrogate pair consumes the next escape. Anything
					// else turns r into U+FFFD and leaves the next escape
					// to be decoded on its own, exactly as encoding/json
					// does.
					if p.Pos+1 < len(p.Data) && p.Data[p.Pos] == '\\' && p.Data[p.Pos+1] == 'u' {
						next := p.Pos
						p.Pos += 2
						r2, ok := p.Hex4()
						if !ok {
							return nil, false
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							buf = utf8.AppendRune(buf, dec)
							break
						}
						p.Pos = next
					}
					r = utf8.RuneError
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, false
			}
		case c < 0x20:
			return nil, false
		default:
			buf = append(buf, c)
			p.Pos++
		}
	}
	return nil, false
}

// kindFromBytes mirrors KindFromString without materializing the string.
func kindFromBytes(b []byte) Kind {
	for k, name := range kindNames {
		if name == string(b) {
			return Kind(k)
		}
	}
	return KindUnknown
}

// typeFromBytes mirrors TypeFromString without materializing the string.
func typeFromBytes(b []byte) DataType {
	for t, name := range typeNames {
		if name == string(b) {
			return DataType(t)
		}
	}
	return TypeNone
}

// formatFromBytes mirrors FormatFromString without materializing the
// string.
func formatFromBytes(b []byte) Format {
	for f, name := range formatNames {
		if name == string(b) {
			return Format(f)
		}
	}
	return FormatUnknown
}

var (
	keyName     = []byte("name")
	keyFormat   = []byte("format")
	keyDoc      = []byte("doc")
	keyElements = []byte("elements")
	keyKind     = []byte("kind")
	keyType     = []byte("type")
	keyChildren = []byte("children")
)

// countObjects upper-bounds the number of element objects in the rest of
// the document by counting open braces: every element is exactly one
// object, and the overcount from brace characters inside strings (or
// trailing unknown objects) only wastes transient arena space.
func countObjects(rest []byte) int {
	return bytes.Count(rest, braceOpen)
}

var braceOpen = []byte{'{'}

// parseSchemaDirect scans the top-level schema object, building the
// Schema as it goes. Name, format and doc apply at the end, so key order
// and duplicate scalar keys (last wins) behave exactly like std.
func (p *fastParser) parseSchemaDirect() (*Schema, bool) {
	if !p.Eat('{') {
		return nil, false
	}
	p.WS()
	if p.Eat('}') {
		return nil, false // std reports the missing-name error
	}
	s := New("", FormatUnknown)
	var name, doc string
	format := FormatUnknown
	sawElements := false
	for {
		p.WS()
		key, ok := p.Key()
		if !ok {
			return nil, false
		}
		p.WS()
		if !p.Eat(':') {
			return nil, false
		}
		p.WS()
		switch {
		case bytes.Equal(key, keyName):
			if name, ok = p.parseStringValue(name, false); !ok {
				return nil, false
			}
		case bytes.Equal(key, keyFormat):
			b, isNull, ok := p.parseRawStringOrNull()
			if !ok {
				return nil, false
			}
			if !isNull {
				format = formatFromBytes(b)
			}
		case bytes.Equal(key, keyDoc):
			if doc, ok = p.parseStringValue(doc, true); !ok {
				return nil, false
			}
		case bytes.Equal(key, keyElements):
			// A repeated array key merges element-wise under std
			// decoding; re-parsing would diverge, so bail.
			if sawElements {
				return nil, false
			}
			sawElements = true
			if p.Pos < len(p.Data) && p.Data[p.Pos] == 'n' {
				if !p.Literal("null") {
					return nil, false
				}
				break
			}
			s.Grow(countObjects(p.Data[p.Pos:]))
			if _, ok := p.parseElementsDirect(s, nil); !ok {
				return nil, false
			}
		default:
			for _, known := range [...]string{"name", "format", "doc", "elements"} {
				if keyLooksLike(key, known) {
					return nil, false // std would case-fold this onto a field
				}
			}
			if !p.SkipValue() {
				return nil, false
			}
		}
		p.WS()
		if p.Eat(',') {
			continue
		}
		if !p.Eat('}') {
			return nil, false
		}
		break
	}
	if name == "" {
		return nil, false // std reports the missing-name error
	}
	s.Name = name
	s.Format = format
	s.Doc = doc
	return s, true
}

// parseElementsDirect scans one element array, adding each element under
// parent. Returns the number of elements added at this level.
func (p *fastParser) parseElementsDirect(s *Schema, parent *Element) (int, bool) {
	if !p.Eat('[') {
		return 0, false
	}
	p.WS()
	if p.Eat(']') {
		return 0, true
	}
	n := 0
	for {
		p.WS()
		if !p.parseElementDirect(s, parent) {
			return 0, false
		}
		n++
		p.WS()
		if p.Eat(',') {
			continue
		}
		if p.Eat(']') {
			return n, true
		}
		return 0, false
	}
}

// parseElementDirect scans one element object and adds it to the schema.
// The element is created when the children key arrives (its name and
// kind must be known by then — canonical order guarantees it; anything
// else bails) or at the object's end.
func (p *fastParser) parseElementDirect(s *Schema, parent *Element) bool {
	if !p.Eat('{') {
		return false
	}
	p.WS()
	if p.Eat('}') {
		return false // std reports the empty-name error
	}
	var name, doc string
	kind := KindUnknown
	typ := TypeNone
	var e *Element
	sawChildren := false
	for {
		p.WS()
		key, ok := p.Key()
		if !ok {
			return false
		}
		p.WS()
		if !p.Eat(':') {
			return false
		}
		p.WS()
		switch {
		case bytes.Equal(key, keyName):
			if sawChildren {
				return false // element already built; late keys bail
			}
			if name, ok = p.parseStringValue(name, true); !ok {
				return false
			}
		case bytes.Equal(key, keyKind):
			if sawChildren {
				return false
			}
			b, isNull, ok := p.parseRawStringOrNull()
			if !ok {
				return false
			}
			if !isNull {
				kind = kindFromBytes(b)
			}
		case bytes.Equal(key, keyType):
			if sawChildren {
				return false
			}
			b, isNull, ok := p.parseRawStringOrNull()
			if !ok {
				return false
			}
			if !isNull {
				typ = typeFromBytes(b)
			}
		case bytes.Equal(key, keyDoc):
			if sawChildren {
				return false
			}
			if doc, ok = p.parseStringValue(doc, true); !ok {
				return false
			}
		case bytes.Equal(key, keyChildren):
			if sawChildren {
				return false // std merges repeated array keys element-wise
			}
			sawChildren = true
			if p.Pos < len(p.Data) && p.Data[p.Pos] == 'n' {
				if !p.Literal("null") {
					return false
				}
				break // null children: element still built at object end
			}
			if name == "" {
				return false // std reports the empty-name error
			}
			e = s.AddElement(parent, name, kind, typ)
			e.Doc = doc
			n, ok := p.parseElementsDirect(s, e)
			if !ok {
				return false
			}
			if n > 0 && !kind.IsContainer() {
				return false // std reports the children-under-leaf error
			}
		default:
			for _, known := range [...]string{"name", "kind", "type", "doc", "children"} {
				if keyLooksLike(key, known) {
					return false
				}
			}
			if !p.SkipValue() {
				return false
			}
		}
		p.WS()
		if p.Eat(',') {
			continue
		}
		if !p.Eat('}') {
			return false
		}
		break
	}
	if e == nil {
		if name == "" {
			return false // std reports the empty-name error
		}
		e = s.AddElement(parent, name, kind, typ)
		e.Doc = doc
	}
	return true
}
