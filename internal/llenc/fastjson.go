package llenc

import (
	"strconv"
	"sync"
	"unicode/utf8"
)

// Shared primitives for hand-rolled JSON fast paths (FastMarshaler /
// FastUnmarshaler implementations). Four codecs use them — the control
// plane's ctlproto.Msg, the RPC library's request/response envelopes,
// metrics.Report and logging.Record — and all carry the same contract:
// the fast encoding must be byte-identical to encoding/json's output,
// and the fast parser must either reproduce encoding/json's result
// exactly or decline so the caller falls back. Keeping the
// character-class rules and the one object/array loop (Lexer.Object,
// Lexer.Array) here means the codecs cannot drift from each other.

// JSONSafe reports whether encoding/json would emit s as a plain quoted
// string: printable ASCII with no characters that JSON or the default
// HTML escaping would rewrite.
func JSONSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// JSONVerbatim reports whether encoding/json's RawMessage encoder
// (compact plus HTML escaping) would emit raw byte-for-byte: no
// whitespace outside strings, no HTML metacharacters anywhere, no
// control bytes, and no U+2028/U+2029 (which the encoder escapes).
// It does not validate raw's grammar — callers that cannot vouch for
// the bytes must check json.Valid separately.
func JSONVerbatim(raw []byte) bool {
	inStr := false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xe2 && i+2 < len(raw) && raw[i+1] == 0x80 && (raw[i+2] == 0xa8 || raw[i+2] == 0xa9):
			return false // U+2028 / U+2029
		}
		if inStr {
			switch {
			case c == '"':
				inStr = false
			case c == '\\':
				i++ // escape sequence: next byte is literal
			case c < 0x20:
				return false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return false // compact would strip it
		case c < 0x20:
			return false
		}
	}
	return !inStr
}

// AppendJSONString appends s as a quoted JSON string. The caller must
// have checked JSONSafe(s).
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Lexer is a cursor over a JSON document for decline-don't-guess fast
// parsers: every method either consumes exactly what encoding/json
// would accept for the construct, or reports false so the caller can
// retry with encoding/json.
type Lexer struct {
	Data []byte
	Pos  int
}

// SkipWS advances past insignificant whitespace.
func (l *Lexer) SkipWS() {
	for l.Pos < len(l.Data) {
		switch l.Data[l.Pos] {
		case ' ', '\t', '\n', '\r':
			l.Pos++
		default:
			return
		}
	}
}

// Consume advances past c if it is the next byte.
func (l *Lexer) Consume(c byte) bool {
	if l.Pos < len(l.Data) && l.Data[l.Pos] == c {
		l.Pos++
		return true
	}
	return false
}

// End reports whether only whitespace remains.
func (l *Lexer) End() bool {
	l.SkipWS()
	return l.Pos == len(l.Data)
}

// Object walks one JSON object, the only object loop the fast parsers
// have. For every member it consumes the key — a RawString, so an
// escaped key declines — and the colon, then calls field with the cursor
// on the first byte of the value; field must consume exactly that value
// and report whether it could. Whitespace is skipped wherever JSON
// allows it except after the closing brace, where the cursor rests on
// success. Unknown and repeated keys are field's business: a codec
// declines a key by returning false.
func (l *Lexer) Object(field func(key []byte) bool) bool {
	l.SkipWS()
	if !l.Consume('{') {
		return false
	}
	l.SkipWS()
	if l.Consume('}') {
		return true
	}
	for {
		l.SkipWS()
		key, ok := l.RawString()
		if !ok {
			return false
		}
		l.SkipWS()
		if !l.Consume(':') {
			return false
		}
		l.SkipWS()
		if !field(key) {
			return false
		}
		l.SkipWS()
		if l.Consume(',') {
			continue
		}
		return l.Consume('}')
	}
}

// Array walks one JSON array the way Object walks an object: elem is
// called with the cursor on the first byte of each element and must
// consume exactly that element; the cursor rests after the closing
// bracket on success.
func (l *Lexer) Array(elem func() bool) bool {
	l.SkipWS()
	if !l.Consume('[') {
		return false
	}
	l.SkipWS()
	if l.Consume(']') {
		return true
	}
	for {
		l.SkipWS()
		if !elem() {
			return false
		}
		l.SkipWS()
		if l.Consume(',') {
			continue
		}
		return l.Consume(']')
	}
}

// RawString parses a quoted string with no escapes, returning the raw
// bytes between the quotes (valid-UTF-8 non-ASCII passes through
// verbatim). Strings containing escapes, control bytes or invalid UTF-8
// — which encoding/json rewrites to U+FFFD — are declined.
func (l *Lexer) RawString() ([]byte, bool) {
	if !l.Consume('"') {
		return nil, false
	}
	start := l.Pos
	ascii := true
	for l.Pos < len(l.Data) {
		c := l.Data[l.Pos]
		if c == '"' {
			s := l.Data[start:l.Pos]
			l.Pos++
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			return s, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		if c >= 0x80 {
			ascii = false
		}
		l.Pos++
	}
	return nil, false
}

// String is RawString converted to a string.
func (l *Lexer) String() (string, bool) {
	b, ok := l.RawString()
	return string(b), ok
}

// Uint parses a non-negative JSON integer. Overflow, leading zeros and
// float/exponent syntax are declined — encoding/json rejects or decodes
// those differently, so guessing would diverge.
func (l *Lexer) Uint() (uint64, bool) {
	start := l.Pos
	var v uint64
	for l.Pos < len(l.Data) {
		c := l.Data[l.Pos]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		const cutoff = (1<<64 - 1) / 10
		if v > cutoff || (v == cutoff && d > (1<<64-1)%10) {
			return 0, false
		}
		v = v*10 + d
		l.Pos++
	}
	if l.Pos == start {
		return 0, false
	}
	if l.Data[start] == '0' && l.Pos-start > 1 {
		return 0, false // "00"/"01" are invalid JSON numbers
	}
	if l.Pos < len(l.Data) {
		switch l.Data[l.Pos] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	return v, true
}

// Int parses a JSON integer that fits an int.
func (l *Lexer) Int() (int, bool) {
	neg := l.Consume('-')
	v, ok := l.Uint()
	if !ok || v > 1<<62 {
		return 0, false
	}
	if neg {
		return int(-int64(v)), true
	}
	return int(v), true
}

// SkipValue consumes one JSON value of any kind and returns its raw
// span, leading and trailing whitespace excluded — the same bytes
// encoding/json captures into a json.RawMessage. The scan is
// structural (strings, nesting, token boundaries), not a grammar
// check: callers that need strictness must validate the span with
// json.Valid before trusting it.
func (l *Lexer) SkipValue() ([]byte, bool) {
	l.SkipWS()
	start := l.Pos
	depth := 0
	for l.Pos < len(l.Data) {
		c := l.Data[l.Pos]
		switch {
		case c == '"':
			if !l.skipString() {
				return nil, false
			}
		case c == '{' || c == '[':
			depth++
			l.Pos++
			continue
		case c == '}' || c == ']':
			if depth == 0 {
				return nil, false
			}
			depth--
			l.Pos++
		case c == ',' || c == ':':
			if depth == 0 {
				return nil, false
			}
			l.Pos++
			continue
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if depth == 0 {
				return nil, false // no value started yet
			}
			l.Pos++
			continue
		case isTokenByte(c):
			for l.Pos < len(l.Data) && isTokenByte(l.Data[l.Pos]) {
				l.Pos++
			}
		default:
			return nil, false
		}
		if depth == 0 {
			return l.Data[start:l.Pos], true
		}
	}
	return nil, false
}

// maxFastDepth bounds nesting in the strict validator. encoding/json
// allows 10,000 levels; declining earlier only costs a fallback, never a
// divergence.
const maxFastDepth = 1000

// Value strictly consumes one JSON value — exactly the RFC 8259 grammar
// encoding/json's scanner accepts (any bytes ≥ 0x20 pass inside strings,
// UTF-8 is not validated, \u escapes need four hex digits) — and returns
// its raw span, whitespace-trimmed like SkipValue. Unlike SkipValue the
// span needs no separate json.Valid check; values nested deeper than
// maxFastDepth are declined.
func (l *Lexer) Value() ([]byte, bool) {
	l.SkipWS()
	start := l.Pos
	if !l.validValue(0) {
		return nil, false
	}
	return l.Data[start:l.Pos], true
}

// validValue shares Array with the codecs but walks objects itself: the
// grammar allows escaped keys, which Object declines.
func (l *Lexer) validValue(depth int) bool {
	if depth > maxFastDepth || l.Pos >= len(l.Data) {
		return false
	}
	switch c := l.Data[l.Pos]; {
	case c == '{':
		l.Pos++
		l.SkipWS()
		if l.Consume('}') {
			return true
		}
		for {
			l.SkipWS()
			if !l.validString() {
				return false
			}
			l.SkipWS()
			if !l.Consume(':') {
				return false
			}
			l.SkipWS()
			if !l.validValue(depth + 1) {
				return false
			}
			l.SkipWS()
			if l.Consume(',') {
				continue
			}
			return l.Consume('}')
		}
	case c == '[':
		return l.Array(func() bool { return l.validValue(depth + 1) })
	case c == '"':
		return l.validString()
	case c == 't':
		return l.consumeLit("true")
	case c == 'f':
		return l.consumeLit("false")
	case c == 'n':
		return l.consumeLit("null")
	default:
		return l.validNumber()
	}
}

// validString consumes a string token, escapes included.
func (l *Lexer) validString() bool {
	if !l.Consume('"') {
		return false
	}
	for l.Pos < len(l.Data) {
		switch c := l.Data[l.Pos]; {
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
				if l.Pos+4 > len(l.Data) {
					return false
				}
				for i := 0; i < 4; i++ {
					if !isHex(l.Data[l.Pos]) {
						return false
					}
					l.Pos++
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

// validNumber consumes a number token: [-] int [frac] [exp].
func (l *Lexer) validNumber() bool {
	l.Consume('-')
	switch {
	case l.Consume('0'):
	case l.Pos < len(l.Data) && l.Data[l.Pos] >= '1' && l.Data[l.Pos] <= '9':
		for l.Pos < len(l.Data) && isDigit(l.Data[l.Pos]) {
			l.Pos++
		}
	default:
		return false
	}
	if l.Consume('.') {
		if l.Pos >= len(l.Data) || !isDigit(l.Data[l.Pos]) {
			return false
		}
		for l.Pos < len(l.Data) && isDigit(l.Data[l.Pos]) {
			l.Pos++
		}
	}
	if l.Pos < len(l.Data) && (l.Data[l.Pos] == 'e' || l.Data[l.Pos] == 'E') {
		l.Pos++
		if l.Pos < len(l.Data) && (l.Data[l.Pos] == '+' || l.Data[l.Pos] == '-') {
			l.Pos++
		}
		if l.Pos >= len(l.Data) || !isDigit(l.Data[l.Pos]) {
			return false
		}
		for l.Pos < len(l.Data) && isDigit(l.Data[l.Pos]) {
			l.Pos++
		}
	}
	return true
}

// consumeLit consumes an exact keyword.
func (l *Lexer) consumeLit(lit string) bool {
	if l.Pos+len(lit) > len(l.Data) || string(l.Data[l.Pos:l.Pos+len(lit)]) != lit {
		return false
	}
	l.Pos += len(lit)
	return true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// ValidJSON reports whether b is exactly one valid JSON value — the
// allocation-free counterpart of json.Valid for fast-path guards.
func ValidJSON(b []byte) bool {
	l := Lexer{Data: b}
	if _, ok := l.Value(); !ok {
		return false
	}
	return l.End()
}

// skipString consumes a quoted string including escape sequences.
func (l *Lexer) skipString() bool {
	l.Pos++ // opening quote
	for l.Pos < len(l.Data) {
		switch l.Data[l.Pos] {
		case '"':
			l.Pos++
			return true
		case '\\':
			l.Pos += 2
		default:
			l.Pos++
		}
	}
	return false
}

// isTokenByte reports bytes that continue a number or keyword token.
func isTokenByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c == '-' || c == '+' || c == '.'
}

// AppendUint appends v in base 10 (a strconv re-export so fast encoders
// need only this package).
func AppendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

// AppendInt appends v in base 10.
func AppendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// AppendHex64 appends v as exactly 16 lower-case hex digits, the "%016x"
// form identifiers that do not fit a JSON number travel in.
func AppendHex64(b []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[v>>shift&15])
	}
	return b
}

// Value codecs. The envelopes above are frames; the values inside them —
// rpc arguments and results, control-frame members — ride the same
// contract, and beyond byte identity their parsers owe decode parity:
// for every input a parser accepts, the receiver ends equal to what
// json.Unmarshal leaves in the same, possibly non-zero, receiver. So a
// value type's parser is a walker: it consumes exactly one value at the
// cursor, writes only the members it meets, and never writes through a
// slice the receiver already held (ParseList builds a new one). The three
// helpers below hold the rest of the rule in one place; a codec is
// AppendJSON, a walker over Lexer.Object, and a one-line ParseJSON.

// lexers lends ParseValue its cursor: walk is a function value, so a
// local one would be heap-allocated on every call.
var lexers = sync.Pool{New: func() any { return new(Lexer) }}

// ParseValue is the body of a value type's ParseJSON: it runs the type's
// walker over *dst — in place, so members the input omits keep what the
// receiver held — and accepts when the walker did and nothing but
// whitespace follows; otherwise *dst is put back as it was.
func ParseValue[T any](data []byte, dst *T, walk func(*T, *Lexer) bool) bool {
	l := lexers.Get().(*Lexer)
	*l = Lexer{Data: data}
	saved := *dst
	ok := walk(dst, l) && l.End()
	if !ok {
		*dst = saved
	}
	l.Data = nil // don't pin the caller's buffer from the pool
	lexers.Put(l)
	return ok
}

// AppendList appends s as a JSON array of its elements' own encodings:
// nil is null and empty is [], as encoding/json has them.
func AppendList[T FastMarshaler](buf []byte, s []T) ([]byte, bool) {
	if s == nil {
		return append(buf, "null"...), true
	}
	b := append(buf, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = s[i].AppendJSON(b); !ok {
			return buf, false
		}
	}
	return append(b, ']'), true
}

// ParseList walks a JSON array into *dst the way encoding/json fills a
// slice: element i starts from what the old slice held at i, up to its
// capacity, so an element that omits a member keeps the old one, and
// "[]" yields an empty non-nil slice. The elements are built in a fresh
// backing array and *dst is assigned only on success. elem parses one
// element at the cursor of l, which it captures.
func ParseList[T any](l *Lexer, dst *[]T, elem func(*T) bool) bool {
	old := (*dst)[:cap(*dst)]
	out := []T{}
	if !l.Array(func() bool {
		var e T
		if len(out) < len(old) {
			e = old[len(out)]
		}
		out = append(out, e)
		return elem(&out[len(out)-1])
	}) {
		return false
	}
	*dst = out
	return true
}
