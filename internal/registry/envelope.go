package registry

import (
	"encoding/json"
	"errors"

	"harmony/internal/jsonlex"
)

// The envelope scanner for snapshots.
//
// A snapshot is one JSON object whose bulk is the schemas' own JSON.
// encoding/json would decode the whole document before the first schema
// could be parsed, and schema.ParseJSON then parses each schema's bytes
// again. The scanner walks the envelope's structure — object and array
// punctuation, the exact keys the encoder writes, nothing after the
// closing brace — and skips each value with the shared JSON lexer, which
// validates it as strictly as encoding/json does, so that the value can
// be handed on as a span: a schema to schema.ParseJSON on a worker, an
// entry's other fields to encoding/json on the worker, the artifacts and
// the ID counter to encoding/json here. Every value is valid JSON and
// decoded by a strict decoder, so the document decodes as encoding/json
// would decode it.
//
// Anything the encoder does not write — an unknown, escaped or repeated
// key, a repeated section, null where an array goes, or a malformed
// value — makes the scan report errUnusualEnvelope, and the caller
// decodes the document again with encoding/json, which also produces the
// canonical error for a malformed one. Bailing is never wrong, only
// slower.

// errUnusualEnvelope sends a snapshot to the encoding/json decoder.
var errUnusualEnvelope = errors.New("registry: snapshot envelope outside the encoder's shape")

// entryKeys are the keys the encoder writes in a snapshot entry, in the
// order fields reports them.
var entryKeys = []string{"schema", "steward", "tags", "registered", "version"}

// envScanner walks one snapshot envelope.
type envScanner struct {
	jsonlex.Lexer
}

// next consumes c, after whitespace, when it is next.
func (sc *envScanner) next(c byte) bool {
	sc.WS()
	return sc.Eat(c)
}

// value skips the next value and returns its span.
func (sc *envScanner) value() ([]byte, bool) {
	start := sc.Pos
	ok := sc.SkipValue()
	return sc.Data[start:sc.Pos], ok
}

// object walks one object's members, calling member after each key with
// the scanner at the value; member must consume it.
func (sc *envScanner) object(member func(key []byte) bool) bool {
	if !sc.next('{') {
		return false
	}
	if sc.next('}') {
		return true
	}
	for {
		sc.WS()
		k, ok := sc.Key()
		if !ok || !sc.next(':') {
			return false
		}
		sc.WS()
		if !member(k) {
			return false
		}
		if sc.next('}') {
			return true
		}
		if !sc.next(',') {
			return false
		}
	}
}

// fields reads an object whose keys are all among names, each at most
// once, and returns each value's span at its name's position (nil when
// absent).
func (sc *envScanner) fields(names []string) ([][]byte, bool) {
	spans := make([][]byte, len(names))
	ok := sc.object(func(k []byte) bool {
		for i, name := range names {
			if string(k) == name && spans[i] == nil {
				var ok bool
				spans[i], ok = sc.value()
				return ok
			}
		}
		return false
	})
	return spans, ok
}

// entries streams an array of entries to emit. Anything else, null
// included, is left to encoding/json.
func (sc *envScanner) entries(history bool, emit func(bool, *decodedEntry)) bool {
	if !sc.next('[') {
		return false
	}
	if sc.next(']') {
		return true
	}
	for {
		spans, ok := sc.fields(entryKeys)
		if !ok {
			return false
		}
		emit(history, &decodedEntry{pe: persistedEntry{Schema: spans[0]}, meta: spans})
		if sc.next(']') {
			return true
		}
		if !sc.next(',') {
			return false
		}
	}
}

// scanEnvelope is the fast envelope decoder: it emits each entry as soon
// as its extent is known, so workers parse schemas while it scans on.
func scanEnvelope(data []byte, emit func(bool, *decodedEntry), c *snapshotContent) error {
	sc := &envScanner{jsonlex.Lexer{Data: data}}
	seen := make(map[string]bool, 4)
	ok := sc.object(func(k []byte) bool {
		key := string(k)
		if seen[key] {
			return false
		}
		seen[key] = true
		switch key {
		case "schemas":
			return sc.entries(false, emit)
		case "history":
			return sc.entries(true, emit)
		case "matches":
			v, ok := sc.value()
			return ok && json.Unmarshal(v, &c.matches) == nil
		case "nextId":
			v, ok := sc.value()
			return ok && json.Unmarshal(v, &c.nextID) == nil
		}
		return false
	})
	if sc.WS(); !ok || sc.Pos != len(data) {
		return errUnusualEnvelope
	}
	return nil
}

// decodeMeta decodes an entry's fields besides its schema from their
// spans, strictly.
func (d *decodedEntry) decodeMeta() error {
	for i, dst := range []any{nil, &d.pe.Steward, &d.pe.Tags, &d.pe.Registered, &d.pe.Version} {
		if d.meta[i] == nil || dst == nil {
			continue
		}
		if err := json.Unmarshal(d.meta[i], dst); err != nil {
			return err
		}
	}
	return nil
}
