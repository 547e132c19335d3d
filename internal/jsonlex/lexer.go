// Package jsonlex is the small JSON lexer under the hand-rolled decoders:
// the schema package's direct-build parser and the registry's snapshot
// envelope scanner. It reads whitespace, punctuation, literals and plain
// object keys, and skips whole values while validating them as strictly
// as encoding/json does, so a decoder built on it can delimit a value it
// does not decode and still reject a malformed document.
package jsonlex

import "unicode/utf8"

// Lexer walks one JSON document: Pos is the next unread byte of Data.
type Lexer struct {
	Data []byte
	Pos  int
}

// WS skips JSON whitespace.
func (l *Lexer) WS() {
	for l.Pos < len(l.Data) {
		switch l.Data[l.Pos] {
		case ' ', '\t', '\n', '\r':
			l.Pos++
		default:
			return
		}
	}
}

// Eat consumes c when it is the next byte.
func (l *Lexer) Eat(c byte) bool {
	if l.Pos < len(l.Data) && l.Data[l.Pos] == c {
		l.Pos++
		return true
	}
	return false
}

// Literal consumes lit when the input continues with it.
func (l *Lexer) Literal(lit string) bool {
	if len(l.Data)-l.Pos < len(lit) || string(l.Data[l.Pos:l.Pos+len(lit)]) != lit {
		return false
	}
	l.Pos += len(lit)
	return true
}

// Key scans one object key and returns its raw bytes, without the colon.
// Keys with escapes, control characters or non-ASCII bytes report !ok:
// encoding/json matches field names with unicode case folding, which a
// byte comparison cannot reproduce, so a decoder leaves them to it.
func (l *Lexer) Key() ([]byte, bool) {
	if !l.Eat('"') {
		return nil, false
	}
	start := l.Pos
	for l.Pos < len(l.Data) {
		c := l.Data[l.Pos]
		if c == '"' {
			key := l.Data[start:l.Pos]
			l.Pos++
			return key, true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return nil, false
		}
		l.Pos++
	}
	return nil, false
}

// SkipValue scans past one JSON value of any type, validating as
// strictly as encoding/json so a malformed value in an ignored or
// delimited field still sends the document to a strict decoder.
func (l *Lexer) SkipValue() bool {
	if l.Pos >= len(l.Data) {
		return false
	}
	switch c := l.Data[l.Pos]; {
	case c == '"':
		return l.SkipString()
	case c == '{':
		l.Pos++
		l.WS()
		if l.Eat('}') {
			return true
		}
		for {
			l.WS()
			if !l.SkipString() {
				return false
			}
			l.WS()
			if !l.Eat(':') {
				return false
			}
			l.WS()
			if !l.SkipValue() {
				return false
			}
			l.WS()
			if l.Eat(',') {
				continue
			}
			return l.Eat('}')
		}
	case c == '[':
		l.Pos++
		l.WS()
		if l.Eat(']') {
			return true
		}
		for {
			l.WS()
			if !l.SkipValue() {
				return false
			}
			l.WS()
			if l.Eat(',') {
				continue
			}
			return l.Eat(']')
		}
	case c == 't':
		return l.Literal("true")
	case c == 'f':
		return l.Literal("false")
	case c == 'n':
		return l.Literal("null")
	default:
		return l.skipNumber()
	}
}

// SkipString validates one JSON string without building it. Structural
// validation matches encoding/json's scanner: escape sequences must be
// well-formed, control characters are rejected, but raw non-UTF-8 bytes
// pass (std accepts them in skipped content).
func (l *Lexer) SkipString() bool {
	if !l.Eat('"') {
		return false
	}
	for l.Pos < len(l.Data) {
		c := l.Data[l.Pos]
		switch {
		case c == '"':
			l.Pos++
			return true
		case c == '\\':
			l.Pos++
			if l.Pos >= len(l.Data) {
				return false
			}
			switch l.Data[l.Pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				l.Pos++
			case 'u':
				l.Pos++
				if _, ok := l.Hex4(); !ok {
					return false
				}
			default:
				return false
			}
		case c < 0x20:
			return false
		default:
			l.Pos++
		}
	}
	return false
}

// skipNumber validates one JSON number: -? (0|[1-9][0-9]*) frac? exp?
func (l *Lexer) skipNumber() bool {
	d := l.Data
	i := l.Pos
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
	l.Pos = i
	return true
}

// Hex4 decodes the four hex digits of a \u escape.
func (l *Lexer) Hex4() (rune, bool) {
	if l.Pos+4 > len(l.Data) {
		return 0, false
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := l.Data[l.Pos+i]
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
	l.Pos += 4
	return r, true
}
