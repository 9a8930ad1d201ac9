package ctlproto

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
	"github.com/splaykit/splay/internal/transport"
)

// sampleMsgs covers every frame the control plane emits, plus edge cases:
// empty strings, zero ports, empty and nil slices, negative ints, strings
// that force the encoding/json fallback (escapes, HTML characters,
// non-ASCII), and raw Params payloads — the by-name deploy's frame shape,
// which rides the plan when encoding/json would emit the parameters byte
// for byte and declines when it would rewrite them (whitespace, HTML
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

// TestFastCodecMatchesEncodingJSON is the byte-compatibility contract of
// Msg's plan: whenever it encodes a message its bytes equal json.Marshal's,
// it declines nothing jsonSafeMsg calls safe, and parsing json.Marshal's
// output either reproduces json.Unmarshal's result exactly or declines.
func TestFastCodecMatchesEncodingJSON(t *testing.T) {
	for i, m := range sampleMsgs() {
		want, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("msg %d: marshal: %v", i, err)
		}
		if !codectest.CheckAppend(t, &m) && jsonSafeMsg(&m) {
			t.Errorf("msg %d: plan declined a safe message %s", i, want)
		}
		codectest.Check(t, want, msgReceivers...)
	}
}

// jsonSafeMsg mirrors the plan's decline conditions, so the tests catch a
// plan that declines too eagerly.
func jsonSafeMsg(m *Msg) bool {
	safe := llenc.JSONSafe[string]
	ok := safe(string(m.Type)) && safe(m.Name) && safe(m.Key) && safe(m.Err)
	for _, h := range m.Hosts {
		ok = ok && safe(h)
	}
	if j := m.Job; j != nil {
		ok = ok && safe(j.ID) && safe(j.App)
		if len(j.Params) > 0 {
			// Verbatim means encoding/json's own encoder leaves them alone.
			enc, err := json.Marshal(j.Params)
			ok = ok && err == nil && bytes.Equal(enc, j.Params) && string(enc) != "null"
		}
		for _, a := range j.Nodes {
			ok = ok && safe(a.Host)
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
	types := []MsgType{THello, TRegister, TList, TPing, TAck, TErr, TBlacklist}
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
		if !codectest.CheckAppend(t, &m) && jsonSafeMsg(&m) {
			t.Fatalf("case %d: plan declined safe message %s", i, want)
		}
		codectest.Check(t, want, msgReceivers...)
	}
}

// TestParseJSONRejectsMalformed pins the plan's decline-don't-guess
// behavior on inputs it must hand to encoding/json: whatever it accepts
// must be what encoding/json decodes, into every receiver.
func TestParseJSONRejectsMalformed(t *testing.T) {
	// A repeated job must decline: encoding/json merges the second into
	// the first's struct.
	repeatedJob := `{"seq":1,"type":"list","job":{"id":"a","app":"x"},"job":{"app":"b"}}`
	cases := []string{
		``, `{`, `[]`, `null`, `{"seq":}`, `{"seq":1.5,"type":"ping"}`,
		`{"seq":1e3,"type":"ping"}`, `{"unknown":1}`,
		`{"seq":1,"type":"pi\u006eg"}`, `{"seq":1,"type":"ping"}x`,
		`{"seq":-1,"type":"ping"}`, `{"job":null}`, `{"job":{"params":{}}}`,
		`{"seq":1,"type":"ping","port":true}`,
		`{"seq":18446744073709551616,"type":"ack"}`, // uint64 overflow must not wrap
		`{"seq":01,"type":"ping"}`,                  // leading zero is invalid JSON
		`{"seq":00,"type":"ping"}`,
		repeatedJob,
		// A repeated list is decoded as encoding/json does: element i
		// starts from the first list's element i.
		`{"seq":1,"type":"list","job":{"id":"a","nodes":[{"host":"h","port":1}],"nodes":[{"port":2}]}}`,
		`{"job":{"params":null}}`, `{"job":{"params":01}}`,
	}
	for _, src := range cases {
		codectest.Check(t, []byte(src), msgReceivers...)
	}
	if m := (Msg{}); llenc.ParseDerived([]byte(repeatedJob), &m) {
		t.Errorf("accepted a repeated job: %+v", m)
	}
}

// TestHotMessagesTakeTheFastPath: every frame kind the controller and the
// daemon send takes the plan both ways, so a member added later that the
// plan cannot carry fails here instead of falling back to encoding/json.
func TestHotMessagesTakeTheFastPath(t *testing.T) {
	job := &Job{ID: "job-3", App: "cyclon", Params: json.RawMessage(`{"report":true,"view":[20,8]}`)}
	for _, m := range []*Msg{
		{Seq: 1, Type: THello, Name: "n42", Key: "k-n42", PortLow: 20000, PortHigh: 29999},
		{Seq: 2, Type: TWelcome, Hosts: []string{"10.0.0.1", "n0"}},
		{Seq: 3, Type: TRegister, Job: job},
		{Seq: 4, Type: TList, Job: &Job{ID: "job-3", App: "cyclon", Position: 2,
			Nodes: []transport.Addr{{Host: "n1", Port: 20000}, {Host: "n7", Port: 20003}}}},
		{Seq: 5, Type: TStart, Job: job},
		{Seq: 6, Type: TStop, Job: &Job{ID: "job-3"}},
		{Seq: 7, Type: TFree, Job: job},
		{Seq: 8, Type: TPing},
		{Seq: 3, Type: TAck, Port: 20001},
		{Seq: 4, Type: TErr, Err: "not registered"},
		{Seq: 9, Type: TBlacklist, Hosts: []string{"n3"}},
	} {
		codectest.Accepts(t, m)
	}
}
