package llenc

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"
)

// TestValidJSONMatchesEncodingJSON is the strict validator's contract:
// acceptance must never be wider than json.Valid's (narrower is fine —
// a decline only costs the caller a fallback).
func TestValidJSONMatchesEncodingJSON(t *testing.T) {
	accepts := []string{
		`null`, `true`, `false`, `0`, `-0`, `123`, `-12.5`, `1e3`, `1E+3`,
		`2.5e-7`, `""`, `"abc"`, `"sp ace"`, `"esc\"aped\\\n"`, `"é"`,
		`[]`, `[1,2,3]`, `{"k":1}`, `{"a":{"b":[true,null,"x"]}}`,
		` [ 1 , {"k" : "v"} ] `, `"é"`,
	}
	for _, src := range accepts {
		if !ValidJSON([]byte(src)) {
			t.Errorf("ValidJSON rejected valid %q", src)
		}
		if !json.Valid([]byte(src)) {
			t.Fatalf("test case %q is not actually valid", src)
		}
	}
	rejects := []string{
		``, `{`, `}`, `[1,]`, `{"k":}`, `{"k" 1}`, `{k:1}`, `01`, `+1`,
		`1.`, `.5`, `1e`, `truex`, `nul`, `"unterminated`, `"bad\escape"`,
		`"\u00zz"`, `[1 2]`, `{"a":1,}`, `[]]`, `1 2`, "\"ctrl\x01\"",
	}
	for _, src := range rejects {
		if json.Valid([]byte(src)) {
			t.Fatalf("test case %q is actually valid", src)
		}
		if ValidJSON([]byte(src)) {
			t.Errorf("ValidJSON accepted invalid %q", src)
		}
	}
}

// TestValidJSONNeverWiderQuick fuzzes the one-way implication with
// random bytes (mostly JSON-ish punctuation so real structures appear).
func TestValidJSONNeverWiderQuick(t *testing.T) {
	alphabet := []byte(`{}[]",:0123456789.eE+-truefalsnl \`)
	f := func(raw []byte) bool {
		b := make([]byte, len(raw))
		for i, v := range raw {
			b[i] = alphabet[int(v)%len(alphabet)]
		}
		if ValidJSON(b) && !json.Valid(b) {
			t.Logf("accepted invalid %q", b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestJSONVerbatimCompactIdentity pins JSONVerbatim's meaning: when it
// reports true for a valid value, encoding/json's RawMessage encoder
// emits the bytes unchanged.
func TestJSONVerbatimCompactIdentity(t *testing.T) {
	cases := []string{
		`null`, `123`, `"plain"`, `"sp ace"`, `"escA"`, `{"k":[1,"x"]}`,
		`"é"`, `[{"a":1},{"b":2}]`,
	}
	for _, src := range cases {
		raw := json.RawMessage(src)
		enc, err := json.Marshal(raw)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if JSONVerbatim(raw) && !bytes.Equal(enc, raw) {
			t.Errorf("JSONVerbatim(%q) true but encoder emits %q", src, enc)
		}
	}
	// Values the encoder rewrites must report false.
	for _, src := range []string{
		`[1, 2]`, `{"k": 1}`, `"<tag>"`, `"a&b"`, "\" \"", `[1,"<"]`,
	} {
		raw := json.RawMessage(src)
		enc, err := json.Marshal(raw)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if JSONVerbatim(raw) && !bytes.Equal(enc, raw) {
			t.Errorf("JSONVerbatim(%q) true but encoder emits %q", src, enc)
		}
	}
}

// TestLexerRawStringDeclinesInvalidUTF8 pins the U+FFFD divergence
// guard: encoding/json rewrites invalid UTF-8 inside strings, so the
// lexer must decline it rather than pass it through.
func TestLexerRawStringDeclinesInvalidUTF8(t *testing.T) {
	l := Lexer{Data: []byte("\"\x9a\"")}
	if _, ok := l.RawString(); ok {
		t.Fatal("RawString accepted invalid UTF-8")
	}
	l = Lexer{Data: []byte(`"é"`)}
	if s, ok := l.RawString(); !ok || string(s) != "é" {
		t.Fatalf("RawString declined valid UTF-8: %q %v", s, ok)
	}
}

// TestLexerObjectArray pins the one object loop and the one array loop
// every fast parser rides. The callbacks decode a toy shape — an object
// of uint members whose "xs" member is an array of uints — and stop on
// the key "stop"; each case states whether the walk succeeds and, when
// it does, where the cursor rests (just past the closing bracket, never
// past trailing whitespace).
func TestLexerObjectArray(t *testing.T) {
	cases := []struct {
		name, src string
		ok        bool
		rest      string // unconsumed input on success
		want      string // keys and values seen, in order
	}{
		{"empty object", `{}`, true, ``, ``},
		{"empty object with whitespace", " {\n} ", true, ` `, ``},
		{"one member", `{"a":1}`, true, ``, `a=1 `},
		{"empty array member", `{"xs":[]}`, true, ``, `xs[] `},
		{"empty array with whitespace", `{"xs":[ ]}`, true, ``, `xs[] `},
		{"nested", `{"a":1,"xs":[2,3],"b":4}tail`, true, `tail`, `a=1 xs[2,3,] b=4 `},
		{"whitespace everywhere", "\t{ \"a\" : 1 ,\n\"xs\" : [ 2 , 3 ] , \"b\" : 4 }\r\n", true, "\r\n", `a=1 xs[2,3,] b=4 `},
		{"repeated key reaches the callback twice", `{"a":1,"a":2}`, true, ``, `a=1 a=2 `},
		{"non-ASCII key passes verbatim", `{"é":1}`, true, ``, `é=1 `},
		{"not an object", `[1]`, false, ``, ``},
		{"empty input", ``, false, ``, ``},
		{"unterminated", `{"a":1`, false, ``, ``},
		{"trailing comma in object", `{"a":1,}`, false, ``, ``},
		{"leading comma in object", `{,"a":1}`, false, ``, ``},
		{"missing colon", `{"a" 1}`, false, ``, ``},
		{"missing comma", `{"a":1 "b":2}`, false, ``, ``},
		{"unquoted key", `{a:1}`, false, ``, ``},
		{"escaped key declines", `{"\u0061":1}`, false, ``, ``},
		{"invalid UTF-8 key declines", "{\"\xff\":1}", false, ``, ``},
		{"callback false declines", `{"a":1,"stop":2,"b":3}`, false, ``, ``},
		{"callback that consumes nothing", `{"a":x}`, false, ``, ``},
		{"trailing comma in array", `{"xs":[1,]}`, false, ``, ``},
		{"leading comma in array", `{"xs":[,1]}`, false, ``, ``},
		{"missing comma in array", `{"xs":[1 2]}`, false, ``, ``},
		{"unterminated array", `{"xs":[1`, false, ``, ``},
		{"array closed by brace", `{"xs":[1}`, false, ``, ``},
		{"element callback false declines", `{"xs":[1,x]}`, false, ``, ``},
	}
	for _, tc := range cases {
		l := Lexer{Data: []byte(tc.src)}
		var seen []byte
		ok := l.Object(func(key []byte) bool {
			if string(key) == "stop" {
				return false
			}
			seen = append(seen, key...)
			if string(key) == "xs" {
				seen = append(seen, '[')
				ok := l.Array(func() bool {
					v, ok := l.Uint()
					if ok {
						seen = append(AppendUint(seen, v), ',')
					}
					return ok
				})
				seen = append(seen, "] "...)
				return ok
			}
			v, ok := l.Uint()
			if ok {
				seen = append(AppendUint(append(seen, '='), v), ' ')
			}
			return ok
		})
		if ok != tc.ok {
			t.Errorf("%s: Object(%q) = %v, want %v", tc.name, tc.src, ok, tc.ok)
			continue
		}
		if ok && string(l.Data[l.Pos:]) != tc.rest {
			t.Errorf("%s: cursor rests before %q, want %q", tc.name, l.Data[l.Pos:], tc.rest)
		}
		if ok && string(seen) != tc.want {
			t.Errorf("%s: callbacks saw %q, want %q", tc.name, seen, tc.want)
		}
	}
}
