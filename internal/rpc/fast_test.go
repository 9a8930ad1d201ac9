package rpc

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
)

// jsonEnvelope is the reference decode of a request frame via
// encoding/json, mirroring the serve loop's fallback path.
type jsonEnvelope struct {
	ID     uint64          `json:"id"`
	Method string          `json:"m"`
	Args   json.RawMessage `json:"a"`
}

// sampleRequests covers every call shape the protocols issue plus the
// edge cases the codec must decline into the fallback: escape-heavy
// method names, non-ASCII, large raw args, overflow-boundary ids.
func sampleRequests() []request {
	big := json.RawMessage(`{"blob":"` + strings.Repeat("x", 4096) + `"}`)
	return []request{
		{},
		{ID: 1, Method: "echo", Args: []any{"hello"}},
		{ID: 2, Method: "add", Args: []any{19, 23}},
		{ID: 3, Method: "__ping"},
		{ID: 18446744073709551615, Method: "find_successor", Args: []any{uint64(1) << 52, 0}},
		{ID: 5, Method: "notify", Args: []any{json.RawMessage(`{"id":12345,"addr":{"host":"n0","port":8000}}`)}},
		{ID: 6, Method: "rumor", Args: []any{nil, true, false}},
		{ID: 7, Method: "neg", Args: []any{-42, int64(-1 << 60)}},
		{ID: 8, Method: "floaty", Args: []any{3.25, float64(1e300)}},
		{ID: 9, Method: "structs", Args: []any{struct {
			A string `json:"a"`
			B int    `json:"b"`
		}{"x", 2}}},
		{ID: 10, Method: `esc"ape`, Args: []any{"x"}},
		{ID: 11, Method: "ünïcode"},
		{ID: 12, Method: "html<&>"},
		{ID: 13, Method: "strs", Args: []any{`needs "quotes"`, "html <&>", "ünïcode", "ctrl\x01"}},
		{ID: 14, Method: "big", Args: []any{big}},
		{ID: 15, Method: "raw-ws", Args: []any{json.RawMessage(`{ "spaced" : 1 }`)}},
		{ID: 16, Method: "spaces", Args: []any{"a string with spaces"}},
	}
}

func sampleResponses() []response {
	return []response{
		{},
		{ID: 1, Result: json.RawMessage(`"pong"`)},
		{ID: 2, Result: json.RawMessage(`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3}`)},
		{ID: 18446744073709551615, Result: json.RawMessage(`42`)},
		{ID: 4, Err: "rpc: unknown method \"x\""},
		{ID: 5, Err: "plain error"},
		{ID: 6, Err: "html <&> error"},
		{ID: 7, Err: "ünïcode error"},
		{ID: 8, Result: json.RawMessage(`[1,2,3]`)},
		{ID: 9, Result: json.RawMessage(`"needs \"escapes\""`)},
	}
}

// TestRPCFastEncodeMatchesEncodingJSON is the byte-compatibility
// contract for the encoders: whenever the request's AppendJSON or the
// response's plan claims an envelope its bytes equal json.Marshal's.
func TestRPCFastEncodeMatchesEncodingJSON(t *testing.T) {
	for i, req := range sampleRequests() {
		req := req
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("req %d: marshal: %v", i, err)
		}
		if got, ok := req.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Errorf("req %d: fast encode diverges:\n got  %s\n want %s", i, got, want)
		}
	}
	for _, resp := range sampleResponses() {
		codectest.CheckAppend(t, &resp)
	}
}

// TestReplyEncodesAsResponse: the server's reply, its result written
// unchecked, frames byte for byte as json.Marshal(response) for every
// sample — results, errors the plan carries and errors that send the
// reply to encoding/json.
func TestReplyEncodesAsResponse(t *testing.T) {
	for _, resp := range sampleResponses() {
		want, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r := reply{ID: resp.ID, Err: resp.Err, Result: llenc.Verbatim(resp.Result)}
		if err := llenc.NewWriter(&buf).Encode(&r); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[llenc.HeaderSize:]; !bytes.Equal(got, want) {
			t.Errorf("reply framed %s, response marshals %s", got, want)
		}
	}
}

// TestResponseTakesItsPlan: every response shape the server writes —
// a result, an error, neither — takes the plan both ways, so a member
// the plan cannot carry fails here instead of falling back.
func TestResponseTakesItsPlan(t *testing.T) {
	for _, resp := range []response{
		{}, {ID: 1, Result: json.RawMessage(`"pong"`)}, {ID: 1<<64 - 1, Err: "plain error"},
		{ID: 2, Result: json.RawMessage(`{"node":{"id":7,"addr":{"host":"n1","port":8000}},"hops":3}`)},
	} {
		codectest.Accepts(t, resp)
	}
}

// refParseRequest is parseRequest's acceptance rule stated the long way:
// the strict validator over the whole "a" value (Lexer.Value), then the
// check that it is an array. The one-pass parse must accept exactly the
// frames this accepts.
func refParseRequest(data []byte) bool {
	l := llenc.Lexer{Data: data}
	return l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			_, ok = l.Uint()
		case "m":
			_, ok = l.RawString()
		case "a":
			var span []byte
			span, ok = l.Value()
			ok = ok && span[0] == '['
		}
		return ok
	}) && l.End()
}

// checkRequestParse cross-checks parseRequest against encoding/json on
// one frame: acceptance must imply an identical decode, with element
// spans equal to encoding/json's split of the array, and acceptance must
// equal refParseRequest's.
func checkRequestParse(t *testing.T, frame []byte) {
	t.Helper()
	fast, ok := parseRequest(frame, nil)
	if refOK := refParseRequest(frame); ok != refOK {
		t.Fatalf("one-pass parse of %q accepted %v; Value then '[' accepted %v", frame, ok, refOK)
	}
	var ref jsonEnvelope
	refErr := json.Unmarshal(frame, &ref)
	if !ok {
		return // declined: the fallback's behavior is authoritative
	}
	if refErr != nil {
		t.Fatalf("fast parser accepted %q which encoding/json rejects: %v", frame, refErr)
	}
	if fast.ID != ref.ID || string(fast.RawMethod) != ref.Method {
		t.Fatalf("fast parse diverges on %q: got (%d, %q), want (%d, %q)",
			frame, fast.ID, fast.RawMethod, ref.ID, ref.Method)
	}
	// The spans split at parse must equal encoding/json's split of the
	// array it captured ("a":null, which it reads as no arguments, the
	// fast parser declines).
	var want []json.RawMessage
	if len(ref.Args) > 0 {
		if err := json.Unmarshal(ref.Args, &want); err != nil {
			t.Fatalf("reference split failed on %q: %v", frame, err)
		}
	}
	if len(fast.Args) != len(want) {
		t.Fatalf("split %d elements of %q, want %d", len(fast.Args), frame, len(want))
	}
	args := NewArgs(fast.Args...)
	for i := range want {
		if !bytes.Equal(fast.Args[i], want[i]) {
			t.Fatalf("element %d of %q: span %q, want %q", i, frame, fast.Args[i], want[i])
		}
		var a, b any
		errA := args.Decode(i, &a)
		errB := json.Unmarshal(want[i], &b)
		if (errA == nil) != (errB == nil) || errA == nil && !reflect.DeepEqual(a, b) {
			t.Fatalf("element %d of %q decodes to %v (%v), want %v (%v)", i, frame, a, errA, b, errB)
		}
	}
}

// checkResponseParse cross-checks the response's plan against
// encoding/json on one frame, into a zero receiver (the pooled one the
// client reads into) and a used one (see codectest.Check).
func checkResponseParse(t *testing.T, frame []byte) {
	t.Helper()
	codectest.Check(t, frame,
		func() response { return response{} },
		func() response { return response{ID: 9, Err: "old", Result: json.RawMessage(`[1]`)} })
}

// TestRPCFastParseMatchesEncodingJSON round-trips every sample through
// json.Marshal and cross-checks both parsers, then pins a set of
// malformed and boundary frames.
func TestRPCFastParseMatchesEncodingJSON(t *testing.T) {
	for _, req := range sampleRequests() {
		req := req
		frame, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		checkRequestParse(t, frame)
	}
	for _, resp := range sampleResponses() {
		resp := resp
		frame, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		checkResponseParse(t, frame)
	}
	for _, src := range []string{
		``, `{`, `[]`, `null`, `{"id":}`, `{"id":1.5,"m":"x"}`,
		`{"id":1,"m":"x"}y`, `{"id":01,"m":"x"}`,
		`{"id":18446744073709551615,"m":"x"}`, // uint64 max is valid
		`{"id":18446744073709551616,"m":"x"}`, // overflow must not wrap
		`{"id":1,"m":"x","a":[1,]}`,           // trailing comma is invalid
		`{"id":1,"m":"x","a":[01]}`,           // invalid number inside args
		`{"id":1,"m":"x","a":["\u00zz"]}`,     // broken escape inside args
		`{"id":1,"m":"x","a":{"k":1}}`,        // args must be an array
		`{"id":1,"m":"x","a":null}`,
		`{"id":1,"m":"x","unknown":1}`,
		`{ "id" : 1 , "m" : "x" , "a" : [ 1 , "two" ] }`, // whitespace everywhere
		`{"id":1,"m":"x","a":[]}`, `{"id":1,"m":"x","a":[ ]}`, `{"id":1,"m":"x","a":[1],"a":[2,3]}`,
		`{"id":1,"m":"x","a":[1,[2,{"k":[3]}]	,"4"]}`,
		// Nesting at llenc's limit of 1,000 levels below the envelope
		// and one past it, which declines to the fallback.
		`{"id":1,"m":"x","a":` + strings.Repeat("[", 1000) + strings.Repeat("]", 1000) + `}`,
		`{"id":1,"m":"x","a":` + strings.Repeat("[", 1001) + strings.Repeat("]", 1001) + `}`,
		`{"id":1,"e":"boom"}`, `{"id":1,"r":{"x":[1,2]}}`, `{"id":1,"r":}`,
	} {
		checkRequestParse(t, []byte(src))
		checkResponseParse(t, []byte(src))
	}
}

// TestRPCFastCodecRandomized fuzzes the contract over random envelopes
// built from a mixed alphabet, the same shape as ctlproto's randomized
// differential test.
func TestRPCFastCodecRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	alphabet := []string{"a", "Z", "0", "_", ".", " ", `"`, `\`, "<", "&", "é", "\x7f", "\n", "{", "["}
	randStr := func() string {
		var b []byte
		for n := rng.Intn(8); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	randArg := func() any {
		switch rng.Intn(7) {
		case 0:
			return randStr()
		case 1:
			return rng.Intn(1000) - 500
		case 2:
			return rng.Uint64()
		case 3:
			return rng.Float64() * 1e6
		case 4:
			return nil
		case 5:
			return rng.Intn(2) == 0
		default:
			return map[string]any{"k": randStr(), "n": rng.Intn(10)}
		}
	}
	for i := 0; i < 2000; i++ {
		req := request{ID: rng.Uint64() >> uint(rng.Intn(64)), Method: randStr()}
		for n := rng.Intn(4); n > 0; n-- {
			req.Args = append(req.Args, randArg())
		}
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := req.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Fatalf("case %d: fast encode diverges:\n got  %s\n want %s", i, got, want)
		}
		checkRequestParse(t, want)

		resp := response{ID: rng.Uint64() >> uint(rng.Intn(64)), Err: randStr()}
		if rng.Intn(2) == 0 {
			raw, _ := json.Marshal(randArg())
			resp.Result = raw
			resp.Err = ""
		}
		want, err = json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		codectest.CheckAppend(t, &resp)
		checkResponseParse(t, want)
		var buf bytes.Buffer
		r := reply{ID: resp.ID, Err: resp.Err, Result: llenc.Verbatim(resp.Result)}
		if err := llenc.NewWriter(&buf).Encode(&r); err != nil || !bytes.Equal(buf.Bytes()[llenc.HeaderSize:], want) {
			t.Fatalf("case %d: reply framed %s (%v), response marshals %s", i, buf.Bytes()[llenc.HeaderSize:], err, want)
		}
	}
}

// FuzzRPCRequestParse feeds arbitrary bytes to the request parser; any
// accepted frame must decode identically via encoding/json.
func FuzzRPCRequestParse(f *testing.F) {
	f.Add([]byte(`{"id":1,"m":"echo","a":["x",3]}`))
	f.Add([]byte(`{"id":18446744073709551615,"m":"__ping"}`))
	f.Add([]byte(`{"id":18446744073709551616,"m":"overflow"}`))
	f.Add([]byte(`{"id":2,"m":"esc\u0041pe","a":[1]}`))
	f.Add([]byte(`{"id":3,"m":"deep","a":[[[[[[{"k":[1,2,{"x":null}]}]]]]]]}`))
	f.Add([]byte(`{"id":4,"m":"big","a":["` + strings.Repeat("y", 2048) + `"]}`))
	f.Add([]byte(`{ "id" : 7 , "m" : "ws" , "a" : [ true , false , null ] }`))
	f.Add([]byte(`{"id":5,"m":"x","a":[1e309]}`))
	f.Add([]byte(`{"a":[,]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestParse(t, data)
	})
}

// FuzzRPCResponseParse is the response-side twin: any frame the plan on
// *response accepts must decode identically via encoding/json.
func FuzzRPCResponseParse(f *testing.F) {
	f.Add([]byte(`{"id":1,"r":"pong"}`))
	f.Add([]byte(`{"id":1,"e":"boom"}`))
	f.Add([]byte(`{"id":18446744073709551615,"r":{"hops":4}}`))
	f.Add([]byte(`{"id":1,"r":["nested",["deep",{"k":1.5e-3}]]}`))
	f.Add([]byte(`{"id":1,"e":"\u00e9scaped"}`))
	f.Add([]byte(`{"id":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResponseParse(t, data)
	})
}

// FuzzRPCRequestEncode fuzzes the encoder differentially over the
// scalar argument space.
func FuzzRPCRequestEncode(f *testing.F) {
	f.Add(uint64(1), "echo", "payload", int64(42), []byte(`{"k":1}`), true)
	f.Add(uint64(1<<63), `we"ird`, "sp ace", int64(-1), []byte(` [1, 2] `), false)
	f.Add(uint64(0), "html<&>", "ünïcode", int64(1<<62), []byte(`not json`), true)
	f.Fuzz(func(t *testing.T, id uint64, method, sArg string, iArg int64, raw []byte, withRaw bool) {
		req := request{ID: id, Method: method, Args: []any{sArg, iArg}}
		if withRaw {
			req.Args = append(req.Args, json.RawMessage(raw))
		}
		want, err := json.Marshal(&req)
		if err != nil {
			// encoding/json rejects it (e.g. invalid raw); the fast
			// encoder must decline too, not emit garbage.
			if got, ok := req.AppendJSON(nil); ok {
				t.Fatalf("fast encoder accepted an unmarshalable request: %s", got)
			}
			return
		}
		if got, ok := req.AppendJSON(nil); ok && !bytes.Equal(got, want) {
			t.Fatalf("fast encode diverges:\n got  %s\n want %s", got, want)
		}
	})
}
