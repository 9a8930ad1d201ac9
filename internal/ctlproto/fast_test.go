package ctlproto

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"github.com/splaykit/splay/internal/transport"
)

// sampleMsgs covers every frame the control plane emits, plus edge cases:
// empty strings, zero ports, empty and nil slices, negative ints, strings
// that force the encoding/json fallback (escapes, HTML characters,
// non-ASCII), and raw Params payloads — the by-name deploy's frame shape,
// which rides the fast path when encoding/json would emit the parameters
// byte for byte and declines when it would rewrite them (whitespace, HTML
// characters) or when they are a literal null.
func sampleMsgs() []Msg {
	return []Msg{
		{},
		{Seq: 1, Type: THello, Name: "n42", Key: "k-n42", PortLow: 20000, PortHigh: 29999},
		{Seq: 7, Type: TWelcome, Hosts: []string{"10.0.0.1", "evil-host"}},
		{Seq: 9, Type: TWelcome, Hosts: []string{}},
		{Type: TPing, Seq: 18446744073709551615},
		{Seq: 3, Type: TAck, Port: 20001},
		{Seq: 4, Type: TErr, Err: "already registered"},
		{Seq: 5, Type: TRegister, Job: &Job{ID: "job-1", App: "pingapp"}},
		{Seq: 6, Type: TList, Job: &Job{
			ID: "job-1", App: "pingapp", Position: 3,
			Nodes: []transport.Addr{{Host: "n1", Port: 8000}, {Host: "n2", Port: 0}},
		}},
		{Seq: 6, Type: TList, Job: &Job{ID: "j", App: "a", Nodes: []transport.Addr{}}},
		{Seq: 8, Type: TStart, Job: &Job{ID: "job-2", App: "chord", Params: json.RawMessage(`{"bits":16}`)}},
		{Seq: 8, Type: TRegister, Job: &Job{ID: "job-3", App: "cyclon", Position: 2,
			Params: json.RawMessage(`{"report":true,"view":[20,8],"peer":{"host":"n1","esc":"a\"b"},"x":null}`),
			Nodes:  []transport.Addr{{Host: "n1", Port: 8000}}}},
		{Seq: 8, Type: TStart, Job: &Job{ID: "j", App: "a", Params: json.RawMessage(`7`)}},
		{Seq: 8, Type: TStart, Job: &Job{ID: "j", App: "a", Params: json.RawMessage(`{ "spaced" : 1 }`)}},
		{Seq: 8, Type: TStart, Job: &Job{ID: "j", App: "a", Params: json.RawMessage(`{"html":"<&>"}`)}},
		{Seq: 8, Type: TStart, Job: &Job{ID: "j", App: "a", Params: json.RawMessage(`null`)}},
		{Seq: 8, Type: TStart, Job: &Job{ID: "job-2", App: "chord", Position: -4}},
		{Seq: 2, Type: TErr, Err: `needs "quotes" and \backslash`},
		{Seq: 2, Type: TErr, Err: "html <&> chars"},
		{Seq: 2, Type: THello, Name: "ünïcode"},
		{Seq: 2, Type: THello, Name: "ctrl\x01char"},
		{Seq: 11, Type: TBlacklist, Hosts: []string{"a", "<b>"}},
	}
}

// TestFastCodecMatchesEncodingJSON is the byte-compatibility contract:
// whenever the fast encoder claims a message, its bytes equal
// json.Marshal's; and the fast parser applied to json.Marshal output
// either reproduces json.Unmarshal's result exactly or declines.
func TestFastCodecMatchesEncodingJSON(t *testing.T) {
	for i, m := range sampleMsgs() {
		m := m
		want, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("msg %d: marshal: %v", i, err)
		}
		if got, ok := m.AppendJSON(nil); ok {
			if !bytes.Equal(got, want) {
				t.Errorf("msg %d: fast encode diverges:\n got  %s\n want %s", i, got, want)
			}
		} else if jsonSafeMsg(&m) {
			t.Errorf("msg %d: fast encoder declined a safe message %s", i, want)
		}

		var viaJSON, viaFast Msg
		if err := json.Unmarshal(want, &viaJSON); err != nil {
			t.Fatalf("msg %d: unmarshal: %v", i, err)
		}
		if viaFast.ParseJSON(want) {
			if !reflect.DeepEqual(viaFast, viaJSON) {
				t.Errorf("msg %d: fast decode diverges:\n got  %+v\n want %+v", i, viaFast, viaJSON)
			}
		} else if !reflect.DeepEqual(viaFast, Msg{}) {
			t.Errorf("msg %d: declined ParseJSON mutated the receiver: %+v", i, viaFast)
		}
	}
}

// jsonSafeMsg mirrors the encoder's own fallback conditions, so the test
// catches an encoder that declines too eagerly.
func jsonSafeMsg(m *Msg) bool {
	ok := jsonSafe(m.Type) && jsonSafe(m.Name) && jsonSafe(m.Key) && jsonSafe(m.Err)
	for _, h := range m.Hosts {
		ok = ok && jsonSafe(h)
	}
	if j := m.Job; j != nil {
		ok = ok && jsonSafe(j.ID) && jsonSafe(j.App)
		if len(j.Params) > 0 {
			// Verbatim means encoding/json's own encoder leaves them alone.
			enc, err := json.Marshal(j.Params)
			ok = ok && err == nil && bytes.Equal(enc, j.Params) && string(enc) != "null"
		}
		for _, a := range j.Nodes {
			ok = ok && jsonSafe(a.Host)
		}
	}
	return ok
}

// TestFastCodecRandomized fuzzes the contract over random messages built
// from a mixed alphabet (safe ASCII, HTML metacharacters, escapes,
// UTF-8, control bytes).
func TestFastCodecRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	alphabet := []string{"a", "Z", "0", "-", "_", ".", ":", " ", `"`, `\`, "<", "&", "é", "\x7f", "\n"}
	randStr := func() string {
		var b []byte
		for n := rng.Intn(8); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	types := []string{THello, TRegister, TList, TPing, TAck, TErr, TBlacklist}
	for i := 0; i < 2000; i++ {
		m := Msg{
			Seq:  rng.Uint64() >> uint(rng.Intn(64)),
			Type: types[rng.Intn(len(types))],
		}
		if rng.Intn(2) == 0 {
			m.Name, m.Key = randStr(), randStr()
			m.PortLow, m.PortHigh = rng.Intn(3)*20000, rng.Intn(3)*29999
		}
		if rng.Intn(2) == 0 {
			m.Job = &Job{ID: randStr(), App: randStr(), Position: rng.Intn(5) - 2}
			for n := rng.Intn(4); n > 0; n-- {
				m.Job.Nodes = append(m.Job.Nodes, transport.Addr{Host: randStr(), Port: rng.Intn(70000) - 2})
			}
			if rng.Intn(4) == 0 {
				quoted, _ := json.Marshal(map[string]string{"k": randStr()})
				m.Job.Params = json.RawMessage([]string{`[1,2]`, string(quoted), `null`, ` 1`, `{"h":"<"}`}[rng.Intn(5)])
			}
		}
		if rng.Intn(3) == 0 {
			for n := rng.Intn(3); n > 0; n-- {
				m.Hosts = append(m.Hosts, randStr())
			}
		}
		m.Port = rng.Intn(2) * rng.Intn(70000)
		m.Err = randStr()

		want, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		if got, ok := m.AppendJSON(nil); ok {
			if !bytes.Equal(got, want) {
				t.Fatalf("case %d: fast encode diverges:\n got  %s\n want %s", i, got, want)
			}
		} else if jsonSafeMsg(&m) {
			t.Fatalf("case %d: fast encoder declined safe message %s", i, want)
		}
		var viaJSON, viaFast Msg
		if err := json.Unmarshal(want, &viaJSON); err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		if viaFast.ParseJSON(want) && !reflect.DeepEqual(viaFast, viaJSON) {
			t.Fatalf("case %d: fast decode diverges on %s:\n got  %+v\n want %+v", i, want, viaFast, viaJSON)
		}
	}
}

// TestParseJSONRejectsMalformed pins the parser's decline-don't-guess
// behavior on inputs it must hand to encoding/json.
func TestParseJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		``, `{`, `[]`, `null`, `{"seq":}`, `{"seq":1.5,"type":"ping"}`,
		`{"seq":1e3,"type":"ping"}`, `{"unknown":1}`,
		`{"seq":1,"type":"pi\u006eg"}`, `{"seq":1,"type":"ping"}x`,
		`{"seq":-1,"type":"ping"}`, `{"job":null}`, `{"job":{"params":{}}}`,
		`{"seq":1,"type":"ping","port":true}`,
		`{"seq":18446744073709551616,"type":"ack"}`, // uint64 overflow must not wrap
		`{"seq":01,"type":"ping"}`,                  // leading zero is invalid JSON
		`{"seq":00,"type":"ping"}`,
		// A repeated struct-bearing member must decline: encoding/json
		// merges the second into the first's structs.
		`{"seq":1,"type":"list","job":{"id":"a","app":"x"},"job":{"app":"b"}}`,
		`{"seq":1,"type":"list","job":{"id":"a","nodes":[{"host":"h","port":1}],"nodes":[{"port":2}]}}`,
	}
	for _, src := range cases {
		var m Msg
		if m.ParseJSON([]byte(src)) {
			// Acceptance is only wrong if encoding/json disagrees.
			var ref Msg
			if err := json.Unmarshal([]byte(src), &ref); err != nil || !reflect.DeepEqual(m, ref) {
				t.Errorf("ParseJSON accepted %q (got %+v)", src, m)
			}
		}
	}
}
