package schema

import (
	"bytes"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
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

// byteIntern is a bounded canonical-string table. Element names and doc
// strings repeat massively across a schema corpus; returning one shared
// string per distinct value makes parsing allocation-free for repeated
// content (the map lookup on a []byte key does not allocate).
type byteIntern struct {
	mu sync.RWMutex
	m  map[string]string
}

const (
	internEntryCap  = 1 << 17
	internMaxKeyLen = 256
)

var strIntern = byteIntern{m: make(map[string]string, 4096)}

func (bi *byteIntern) get(b []byte) string {
	bi.mu.RLock()
	s, ok := bi.m[string(b)]
	bi.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	if len(b) <= internMaxKeyLen {
		bi.mu.Lock()
		if len(bi.m) < internEntryCap {
			bi.m[s] = s
		}
		bi.mu.Unlock()
	}
	return s
}

// fastParser scans one JSON document.
type fastParser struct {
	data []byte
	pos  int
}

// parseSchemaFast decodes data directly into a Schema, reporting
// ok=false when the input needs the encoding/json fallback (malformed
// or merely unusual — the caller cannot tell and must not care).
func parseSchemaFast(data []byte) (*Schema, bool) {
	p := &fastParser{data: data}
	p.ws()
	s, ok := p.parseSchemaDirect()
	if !ok {
		return nil, false
	}
	p.ws()
	if p.pos != len(p.data) {
		return nil, false
	}
	return s, true
}

func (p *fastParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *fastParser) eat(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *fastParser) parseLiteral(lit string) bool {
	if len(p.data)-p.pos < len(lit) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return false
	}
	p.pos += len(lit)
	return true
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

// scanKey scans one object key and returns its raw bytes. Keys with
// escapes or non-ASCII bytes bail: std matches field names with unicode
// case folding, which byte comparison cannot reproduce.
func (p *fastParser) scanKey() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			key := p.data[start:p.pos]
			p.pos++
			return key, true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return nil, false
		}
		p.pos++
	}
	return nil, false
}

// parseStringValue decodes a string value, returning prev unchanged for
// a JSON null (encoding/json's behavior for *string-less decoding).
// With intern set the result is canonicalized through the intern table.
func (p *fastParser) parseStringValue(prev string, intern bool) (string, bool) {
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		if p.parseLiteral("null") {
			return prev, true
		}
		return "", false
	}
	b, ok := p.parseStringRaw()
	if !ok {
		return "", false
	}
	if intern {
		return strIntern.get(b), true
	}
	return string(b), true
}

// parseRawStringOrNull decodes a string value to raw bytes; null
// reports isNull with no bytes. Used for enum fields whose string never
// needs to materialize.
func (p *fastParser) parseRawStringOrNull() (b []byte, isNull, ok bool) {
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		if p.parseLiteral("null") {
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
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	ascii := true
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			seg := p.data[start:p.pos]
			p.pos++
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
		p.pos++
	}
	return nil, false
}

// unquoteFrom decodes the rest of a string that contains escapes,
// starting over from the opening position.
func (p *fastParser) unquoteFrom(start int) ([]byte, bool) {
	buf := make([]byte, 0, 2*(p.pos-start)+16)
	buf = append(buf, p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			if !utf8.Valid(buf) {
				return nil, false
			}
			return buf, true
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return nil, false
			}
			esc := p.data[p.pos]
			p.pos++
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
				r, ok := p.hex4()
				if !ok {
					return nil, false
				}
				if utf16.IsSurrogate(r) {
					// A surrogate pair consumes the next escape. Anything
					// else turns r into U+FFFD and leaves the next escape
					// to be decoded on its own, exactly as encoding/json
					// does.
					if p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
						next := p.pos
						p.pos += 2
						r2, ok := p.hex4()
						if !ok {
							return nil, false
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							buf = utf8.AppendRune(buf, dec)
							break
						}
						p.pos = next
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
			p.pos++
		}
	}
	return nil, false
}

func (p *fastParser) hex4() (rune, bool) {
	if p.pos+4 > len(p.data) {
		return 0, false
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, false
		}
	}
	p.pos += 4
	return r, true
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
	if !p.eat('{') {
		return nil, false
	}
	p.ws()
	if p.eat('}') {
		return nil, false // std reports the missing-name error
	}
	s := New("", FormatUnknown)
	var name, doc string
	format := FormatUnknown
	sawElements := false
	for {
		p.ws()
		key, ok := p.scanKey()
		if !ok {
			return nil, false
		}
		p.ws()
		if !p.eat(':') {
			return nil, false
		}
		p.ws()
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
			if p.pos < len(p.data) && p.data[p.pos] == 'n' {
				if !p.parseLiteral("null") {
					return nil, false
				}
				break
			}
			s.Grow(countObjects(p.data[p.pos:]))
			if _, ok := p.parseElementsDirect(s, nil); !ok {
				return nil, false
			}
		default:
			for _, known := range [...]string{"name", "format", "doc", "elements"} {
				if keyLooksLike(key, known) {
					return nil, false // std would case-fold this onto a field
				}
			}
			if !p.skipValue() {
				return nil, false
			}
		}
		p.ws()
		if p.eat(',') {
			continue
		}
		if !p.eat('}') {
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
	if !p.eat('[') {
		return 0, false
	}
	p.ws()
	if p.eat(']') {
		return 0, true
	}
	n := 0
	for {
		p.ws()
		if !p.parseElementDirect(s, parent) {
			return 0, false
		}
		n++
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
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
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return false // std reports the empty-name error
	}
	var name, doc string
	kind := KindUnknown
	typ := TypeNone
	var e *Element
	sawChildren := false
	for {
		p.ws()
		key, ok := p.scanKey()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
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
			if p.pos < len(p.data) && p.data[p.pos] == 'n' {
				if !p.parseLiteral("null") {
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
			if !p.skipValue() {
				return false
			}
		}
		p.ws()
		if p.eat(',') {
			continue
		}
		if !p.eat('}') {
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

// skipValue scans past one JSON value of any type, validating as
// strictly as encoding/json so a malformed value in an ignored field
// still sends the document to the fallback (which rejects it).
func (p *fastParser) skipValue() bool {
	if p.pos >= len(p.data) {
		return false
	}
	switch c := p.data[p.pos]; {
	case c == '"':
		return p.skipString()
	case c == '{':
		p.pos++
		p.ws()
		if p.eat('}') {
			return true
		}
		for {
			p.ws()
			if !p.skipString() {
				return false
			}
			p.ws()
			if !p.eat(':') {
				return false
			}
			p.ws()
			if !p.skipValue() {
				return false
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			return p.eat('}')
		}
	case c == '[':
		p.pos++
		p.ws()
		if p.eat(']') {
			return true
		}
		for {
			p.ws()
			if !p.skipValue() {
				return false
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			return p.eat(']')
		}
	case c == 't':
		return p.parseLiteral("true")
	case c == 'f':
		return p.parseLiteral("false")
	case c == 'n':
		return p.parseLiteral("null")
	default:
		return p.skipNumber()
	}
}

// skipString validates one JSON string without building it. Structural
// validation matches encoding/json's scanner: escape sequences must be
// well-formed, control characters are rejected, but raw non-UTF-8 bytes
// pass (std accepts them in skipped content).
func (p *fastParser) skipString() bool {
	if !p.eat('"') {
		return false
	}
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return true
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return false
			}
			switch p.data[p.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.pos++
			case 'u':
				p.pos++
				if _, ok := p.hex4(); !ok {
					return false
				}
			default:
				return false
			}
		case c < 0x20:
			return false
		default:
			p.pos++
		}
	}
	return false
}

// skipNumber validates one JSON number: -? (0|[1-9][0-9]*) frac? exp?
func (p *fastParser) skipNumber() bool {
	d := p.data
	i := p.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			return false
		}
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			return false
		}
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	}
	p.pos = i
	return true
}
