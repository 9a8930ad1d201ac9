package rpc

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// plainRef is the {id, addr} shape every protocol's node reference has,
// with no codec: the encoding/json twin of fastRef.
type plainRef struct {
	ID   uint64         `json:"id"`
	Addr transport.Addr `json:"addr"`
}

// fastRef is plainRef with a value codec — an encoder and a walker, which
// the plan runs as a leaf — that counts its consultations.
type fastRef plainRef

var fastRefEncodes, fastRefParses int

func (r fastRef) AppendJSON(buf []byte) ([]byte, bool) {
	fastRefEncodes++
	b := llenc.AppendUint(append(buf, `{"id":`...), r.ID)
	b, ok := r.Addr.AppendJSON(append(b, `,"addr":`...))
	if !ok {
		return buf, false
	}
	return append(b, '}'), true
}

func (r *fastRef) WalkJSON(l *llenc.Lexer) bool {
	fastRefParses++
	return l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			r.ID, ok = l.Uint()
		case "addr":
			ok = r.Addr.WalkJSON(l)
		}
		return ok
	})
}

// decliningRef has a codec that is asked and always says no.
type decliningRef plainRef

var decliningRefAsked int

func (r decliningRef) AppendJSON(buf []byte) ([]byte, bool) { decliningRefAsked++; return buf, false }
func (r *decliningRef) WalkJSON(*llenc.Lexer) bool          { decliningRefAsked++; return false }

// TestValueSeamsConsultTheContract drives one call through all four value
// seams — call argument, Args.Decode, handler result, Result.Decode —
// once with a codec that accepts and once with one that declines: both
// are consulted at every seam, and either way the caller reads exactly
// what the codec-less twin reads.
func TestValueSeamsConsultTheContract(t *testing.T) {
	e := newEnv(t, 2)
	addr := transport.Addr{Host: "n1", Port: 8000}
	e.k.Go(func() {
		s := NewServer(e.ctx(1))
		s.Register("fast", func(args Args) (any, error) {
			var r fastRef
			err := args.Decode(0, &r)
			r.ID++
			return r, err
		})
		s.Register("declining", func(args Args) (any, error) {
			var r decliningRef
			err := args.Decode(0, &r)
			r.ID++
			return r, err
		})
		s.Register("plain", func(args Args) (any, error) {
			var r plainRef
			err := args.Decode(0, &r)
			r.ID++
			return r, err
		})
		if err := s.Start(8000); err != nil {
			t.Errorf("start: %v", err)
		}
	})
	in := plainRef{ID: 1<<64 - 2, Addr: transport.Addr{Host: "n7", Port: 20001}}
	want := plainRef{ID: 1<<64 - 1, Addr: in.Addr}
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		fastRefEncodes, fastRefParses, decliningRefAsked = 0, 0, 0

		var plain plainRef
		res, err := c.Call(addr, "plain", in)
		if err != nil || res.Decode(&plain) != nil || plain != want {
			t.Errorf("plain: %+v, %v", plain, err)
		}
		wire := string(res)

		var fast fastRef
		res, err = c.Call(addr, "fast", fastRef(in))
		if err != nil || res.Decode(&fast) != nil || plainRef(fast) != want || string(res) != wire {
			t.Errorf("fast: %+v %s, %v", fast, res, err)
		}
		if fastRefEncodes != 2 || fastRefParses != 2 {
			t.Errorf("accepting codec: %d encodes and %d parses over one call, want 2 and 2", fastRefEncodes, fastRefParses)
		}

		var declined decliningRef
		res, err = c.Call(addr, "declining", decliningRef(in))
		if err != nil || res.Decode(&declined) != nil || plainRef(declined) != want || string(res) != wire {
			t.Errorf("declining: %+v %s, %v", declined, res, err)
		}
		if decliningRefAsked != 4 {
			t.Errorf("declining codec asked %d times over one call, want 4", decliningRefAsked)
		}
	})
	e.k.Run()
}

// TestValuesEncodeAsEncodingJSON pins the one value encoder against
// json.Marshal over what handlers return and callers pass: the scalars
// ("pong" included), codec-bearing values that accept and that decline,
// raw payloads, and a nil pointer to a codec-bearing type, which
// encoding/json writes as null without calling it.
func TestValuesEncodeAsEncodingJSON(t *testing.T) {
	ref := plainRef{ID: 7, Addr: transport.Addr{Host: "n1", Port: 8000}}
	esc := plainRef{ID: 7, Addr: transport.Addr{Host: `<"n1">`}}
	values := []any{
		"pong", "", "sp ace", `needs "quotes"`, "html <&>", "ünïcode", "ctrl\x01",
		0, -42, int64(-1 << 62), int32(7), uint(9), uint64(1<<64 - 1), true, false, 3.25,
		ref, fastRef(ref), decliningRef(ref), fastRef(esc), &ref, (*fastRef)(&ref), (*fastRef)(nil),
		[]fastRef{fastRef(ref)}, map[string]int{"a": 1},
		json.RawMessage(`{"k":[1,2]}`), json.RawMessage(`{ "spaced" : 1 }`), json.RawMessage(nil),
	}
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		got, err := marshalValue(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%#v: encoded %s (%v), want %s", v, got, err, want)
		}
		if got, _ := appendValue([]byte("kept"), v); string(got) != "kept"+string(want) {
			t.Errorf("%#v: appended %s, want kept%s", v, got, want)
		}
	}
	if _, err := marshalValue(make(chan int)); err == nil {
		t.Error("an unmarshalable value encoded")
	}
}
