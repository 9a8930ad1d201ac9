package rpc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

type decodeProbe struct {
	ID   uint64   `json:"id"`
	Addr string   `json:"addr"`
	Hops int      `json:"hops"`
	List []string `json:"list,omitempty"`
}

// TestUnmarshalMatchesEncodingJSON drives the pooled decoders and
// json.Unmarshal over the same inputs — valid, padded, trailed by garbage,
// malformed, mistyped, oversized — interleaved, so a decoder that came back
// to the pool dirty would corrupt the next case.
func TestUnmarshalMatchesEncodingJSON(t *testing.T) {
	big := `["` + strings.Repeat("x", 2*maxPooledDecode) + `"]`
	cases := []struct {
		in  string
		new func() any
	}{
		{`42`, func() any { return new(uint64) }},
		{`18446744073709551615`, func() any { return new(uint64) }},
		{`-7`, func() any { return new(int) }},
		{`"pong"`, func() any { return new(string) }},
		{`true`, func() any { return new(bool) }},
		{`null`, func() any { return new(*int) }},
		{`{"id":7,"addr":"10.0.0.1:2000","hops":3}`, func() any { return new(decodeProbe) }},
		{`{"id":7,"list":["a","b"],"unknown":{"x":[1,2]}}`, func() any { return new(decodeProbe) }},
		{`[{"id":1},{"id":2}]`, func() any { return new([]decodeProbe) }},
		{`{"a":1.5}`, func() any { return new(map[string]any) }},
		{`[1,2,3]`, func() any { return new(json.RawMessage) }},
		{` 42`, func() any { return new(uint64) }},
		{"42 \n", func() any { return new(uint64) }},
		{`{"id":7} `, func() any { return new(decodeProbe) }},
		{`42 43`, func() any { return new(uint64) }},
		{`{"id":7}x`, func() any { return new(decodeProbe) }},
		{`{"id":7`, func() any { return new(decodeProbe) }},
		{`{"id":}`, func() any { return new(decodeProbe) }},
		{``, func() any { return new(uint64) }},
		{`   `, func() any { return new(uint64) }},
		{`"abc"`, func() any { return new(uint64) }},
		{`{"id":"seven","hops":3}`, func() any { return new(decodeProbe) }},
		{`-1`, func() any { return new(uint64) }},
		{big, func() any { return new([]string) }},
	}
	for round := 0; round < 3; round++ {
		for _, c := range cases {
			want, got := c.new(), c.new()
			wantErr := json.Unmarshal([]byte(c.in), want)
			gotErr := unmarshal([]byte(c.in), got)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%q: unmarshal error %v, json.Unmarshal error %v", c.in, gotErr, wantErr)
			}
			if wantErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Errorf("%q: error %q, want %q", c.in, gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q: decoded %+v, want %+v", c.in, got, want)
			}
		}
	}
}

// TestUnmarshalDoesNotAlias checks that decoded values own their bytes:
// Args elements live in a pooled buffer that is rewritten after the handler
// returns.
func TestUnmarshalDoesNotAlias(t *testing.T) {
	in := []byte(`{"addr":"10.0.0.1:2000","list":["a"]}`)
	var p decodeProbe
	var raw json.RawMessage
	if err := unmarshal(in, &p); err != nil {
		t.Fatal(err)
	}
	if err := unmarshal(in, &raw); err != nil {
		t.Fatal(err)
	}
	want := string(in)
	for i := range in {
		in[i] = '#'
	}
	if p.Addr != "10.0.0.1:2000" || p.List[0] != "a" || string(raw) != want {
		t.Fatalf("decoded values alias the input: %+v %q", p, raw)
	}
}

// TestDecodeSteadyStateAllocs pins what the pool is for: decoding an
// argument or a result into an existing value allocates nothing once a
// decoder is pooled.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	args := NewArgs(json.RawMessage(`3735928559`))
	res := Result(`{"id":7,"hops":3}`)
	var id uint64
	var p decodeProbe
	allocs := testing.AllocsPerRun(200, func() {
		if err := args.Decode(0, &id); err != nil {
			t.Fatal(err)
		}
		if err := res.Decode(&p); err != nil {
			t.Fatal(err)
		}
	})
	if id != 3735928559 || p.ID != 7 || p.Hops != 3 {
		t.Fatalf("decoded %d %+v", id, p)
	}
	if allocs != 0 {
		t.Errorf("Args.Decode + Result.Decode: %v allocs/op, want 0", allocs)
	}
}
