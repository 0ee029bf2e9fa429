package wire

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"unicode/utf8"
)

// DecodeTicks decodes the body of POST /v1/feeds/{name}/ticks: either
// {"ticks":[batch, ...]} or one bare batch {"t":..., "positions":[...]}.
// Like any unknown key, the "edges" of a batch from a client that still
// sends contacts is ignored — by encoding/json, as the scanner gives such
// a body up — so an edges-only bare batch, having no positions, is refused.
//
// The canonical spelling — exact lower-case keys, each at most once,
// labels without escapes — is read by a schema scanner in one pass over one
// string copy of the body; every label it returns is a substring of that
// copy, so a caller that keeps a label past the request must clone it. Any
// other spelling hands the whole body to encoding/json (decodeTicksReflect),
// which is also the scanner's specification: for every input DecodeTicks
// returns what decodeTicksReflect returns (FuzzDecodeTicks).
func DecodeTicks(body []byte) ([]TickBatch, error) {
	if batches, ok := scanTicks(string(body)); ok {
		return batches, nil
	}
	return decodeTicksReflect(body)
}

// decodeTicksReflect is DecodeTicks by encoding/json alone: the wrapper
// first, then a bare batch. It decides every spelling the scanner does not
// own — escapes and invalid UTF-8 in strings, case-folded, duplicate or
// unknown keys, null, numbers strconv refuses — and every rejection.
func decodeTicksReflect(body []byte) ([]TickBatch, error) {
	var req TicksRequest
	if err := json.Unmarshal(body, &req); err == nil && req.Ticks != nil {
		return req.Ticks, nil
	}
	var one TickBatch
	if err := json.Unmarshal(body, &one); err == nil && one.Positions != nil {
		return []TickBatch{one}, nil
	}
	return nil, errors.New(`decode ticks: want {"ticks":[{"t":0,"positions":[...]}]} or one bare batch`)
}

// scanTicks reads the canonical spelling of a ticks body. It reports false —
// never an error — for anything else, well-formed or not: the scanner owns
// only inputs on which its result is encoding/json's by construction.
func scanTicks(s string) ([]TickBatch, bool) {
	sc := tickScanner{s: s}
	wrapper := false
	if sc.eat('{') {
		k, done, ok := sc.key(0)
		wrapper = ok && !done && k == "ticks"
	}
	var (
		out []TickBatch
		ok  bool
	)
	if wrapper {
		// A wrapper with any second key (a bare batch's among them, which
		// the reference falls through to when "ticks" is null) is not ours.
		out, ok = scanArray(&sc, 1, (*tickScanner).batch)
		ok = ok && sc.eat('}')
	} else {
		sc.i = 0
		out = make([]TickBatch, 1)
		ok = sc.batch(&out[0]) && out[0].Positions != nil
	}
	sc.ws()
	return out, ok && sc.i == len(s)
}

// tickScanner is a cursor over the body. Each method skips leading JSON
// whitespace, consumes what it names on success and reports false on
// anything else, leaving the cursor wherever it stopped (a false abandons
// the scan).
type tickScanner struct {
	s string
	i int
}

func (sc *tickScanner) ws() {
	for sc.i < len(sc.s) {
		switch sc.s[sc.i] {
		case ' ', '\t', '\r', '\n':
			sc.i++
		default:
			return
		}
	}
}

// eat consumes the single byte c.
func (sc *tickScanner) eat(c byte) bool {
	sc.ws()
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str reads a string literal that is its own value: no escape, no control
// byte, valid UTF-8 (encoding/json rewrites the first and the last and
// rejects the second). The result is a substring of the body.
func (sc *tickScanner) str() (string, bool) {
	if !sc.eat('"') {
		return "", false
	}
	s, start := sc.s, sc.i
	ascii := true
	for i := start; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			sc.i = i + 1
			return s[start:i], ascii || utf8.ValidString(s[start:i])
		case c < ' ' || c == '\\':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// number reads a literal of JSON's number grammar — narrower than what
// strconv accepts (no "+1", ".5", "0x10", "1_000", "Inf").
func (sc *tickScanner) number() (string, bool) {
	sc.ws()
	s, i := sc.s, sc.i
	digits := func() bool {
		d := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > d
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		return "", false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return "", false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return "", false
		}
	}
	lit := s[sc.i:i]
	sc.i = i
	return lit, true
}

// float and tick convert with the calls encoding/json makes for a float64
// and an int64 field; a literal they refuse (1e999, 1.0 as a tick) is
// encoding/json's to report.
func (sc *tickScanner) float() (float64, bool) {
	lit, ok := sc.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(lit, 64)
	return v, err == nil
}

func (sc *tickScanner) tick() (int64, bool) {
	lit, ok := sc.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(lit, 10, 64)
	return v, err == nil
}

// key reads the key and colon of the next member of an object whose '{' and
// n members have been consumed; done reports the closing '}' instead.
func (sc *tickScanner) key(n int) (k string, done, ok bool) {
	if sc.eat('}') {
		return "", true, true
	}
	if n > 0 && !sc.eat(',') {
		return "", false, false
	}
	k, ok = sc.str()
	return k, false, ok && sc.eat(':')
}

// object reads an object, handing each member's key to field with the
// cursor at the value. field reads the value and names the member by a bit;
// a key field does not know, or one seen before — encoding/json merges
// duplicates field by field — gives the object up.
func (sc *tickScanner) object(field func(key string) (bit uint8, ok bool)) bool {
	if !sc.eat('{') {
		return false
	}
	var seen uint8
	for n := 0; ; n++ {
		k, done, ok := sc.key(n)
		if !ok || done {
			return ok
		}
		bit, ok := field(k)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// scanArray reads an array of objects, each by elem, into a slice that is
// non-nil even when empty (as encoding/json decodes "[]").
func scanArray[T any](sc *tickScanner, capacity int, elem func(*tickScanner, *T) bool) ([]T, bool) {
	if !sc.eat('[') {
		return nil, false
	}
	out := make([]T, 0, capacity)
	for n := 0; ; n++ {
		if sc.eat(']') {
			return out, true
		}
		if n > 0 && !sc.eat(',') {
			return nil, false
		}
		var zero T
		out = append(out, zero)
		if !elem(sc, &out[len(out)-1]) {
			return nil, false
		}
	}
}

// sizeHint bounds the elements of the array the cursor stands before by
// the '{' bytes ahead of the next ']', so the slice is sized once. It is
// only a capacity: a label holding either byte makes it wrong, not the
// result. Capped at one element per three bytes ("{},"), the densest array
// encoding/json would accept.
func (sc *tickScanner) sizeHint() int {
	rest := sc.s[sc.i:]
	if end := strings.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(strings.Count(rest, "{"), len(rest)/3+1)
}

func (sc *tickScanner) batch(b *TickBatch) bool {
	return sc.object(func(key string) (bit uint8, ok bool) {
		switch key {
		case "t":
			b.T, ok = sc.tick()
			return 1, ok
		case "positions":
			b.Positions, ok = scanArray(sc, sc.sizeHint(), (*tickScanner).position)
			return 2, ok
		}
		return 0, false
	})
}

func (sc *tickScanner) position(p *Position) bool {
	return sc.object(func(key string) (bit uint8, ok bool) {
		switch key {
		case "id":
			p.ID, ok = sc.str()
			return 1, ok
		case "x":
			p.X, ok = sc.float()
			return 2, ok
		case "y":
			p.Y, ok = sc.float()
			return 4, ok
		}
		return 0, false
	})
}
