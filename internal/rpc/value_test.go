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
// with no codec of its own.
type plainRef struct {
	ID   uint64         `json:"id"`
	Addr transport.Addr `json:"addr"`
}

// TestValueSeamsConsultTheContract drives one call through all four value
// seams — call argument, Args.Decode, handler result, Result.Decode —
// with a type that has only its json tags: each seam takes the derived
// plan, and the caller reads exactly the value and the bytes
// encoding/json would give.
func TestValueSeamsConsultTheContract(t *testing.T) {
	e := newEnv(t, 2)
	addr := transport.Addr{Host: "n1", Port: 8000}
	e.k.Go(func() {
		s := NewServer(e.ctx(1))
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
	wire, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		var plain plainRef
		res, err := c.Call(addr, "plain", in)
		if err != nil || res.Decode(&plain) != nil || plain != want || string(res) != string(wire) {
			t.Errorf("plain: %+v %s, %v; want %+v %s", plain, res, err, want, wire)
		}
	})
	e.k.Run()
}

// TestValuesEncodeAsEncodingJSON pins the one value encoder against
// json.Marshal over what handlers return and callers pass: the scalars
// ("pong" included), planned values the plan accepts and declines, raw
// payloads, and a nil pointer to a planned type, which encoding/json
// writes as null. Every encoding is also verbatim JSON (ValidVerbatim),
// which is what lets the server write a result unchecked (llenc.Verbatim).
func TestValuesEncodeAsEncodingJSON(t *testing.T) {
	ref := plainRef{ID: 7, Addr: transport.Addr{Host: "n1", Port: 8000}}
	esc := plainRef{ID: 7, Addr: transport.Addr{Host: `<"n1">`}}
	values := []any{
		"pong", "", "sp ace", `needs "quotes"`, "html <&>", "ünïcode", "ctrl\x01", "\u2028",
		0, -42, int64(-1 << 62), int32(7), uint(9), uint64(1<<64 - 1), true, false, 3.25, 1e300,
		ref, esc, &ref, &esc, (*plainRef)(nil), []plainRef{ref, esc}, map[string]int{"a": 1},
		map[string]string{"<": "&"}, []any{1.5, "x", nil},
		json.RawMessage(`{"k":[1,2]}`), json.RawMessage(`{ "spaced" : 1 }`), json.RawMessage(`"<"`),
		json.RawMessage(nil), json.RawMessage(`null`),
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
		if !llenc.ValidVerbatim(got) {
			t.Errorf("%#v: encoded %s, which is not verbatim JSON", v, got)
		}
		if got, _ := appendValue([]byte("kept"), v); string(got) != "kept"+string(want) {
			t.Errorf("%#v: appended %s, want kept%s", v, got, want)
		}
	}
	if _, err := marshalValue(make(chan int)); err == nil {
		t.Error("an unmarshalable value encoded")
	}
}
