package cyclon

import (
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
	"github.com/splaykit/splay/internal/transport"
)

// receivers are what a shuffle list may be decoded into: nil, and a
// slice with old entries plus spare capacity holding a stale one — which
// encoding/json decodes element by element *into*, so an entry that omits
// a member keeps the old value.
var receivers = []func() []Entry{
	func() []Entry { return nil },
	func() []Entry {
		return []Entry{{Addr: transport.Addr{Host: "old0", Port: 1}, Age: 7}, {Addr: transport.Addr{Host: "stale", Port: 2}, Age: 8}}[:1]
	},
}

// TestHotMessagesTakeTheFastPath pins that the shuffle payload rides the
// derived codec in both directions, for the shapes the protocol sends.
func TestHotMessagesTakeTheFastPath(t *testing.T) {
	codectest.Accepts(t, []Entry{})
	codectest.Accepts(t, []Entry{{}})
	codectest.Accepts(t, []Entry{
		{Addr: transport.Addr{Host: "n17", Port: 20001}, Age: 3},
		{Addr: transport.Addr{Host: "10.0.0.1", Port: 0}, Age: -1},
	})
	// A nil list is null on the wire and null back is nil, as encoding/json
	// has them; a host the encoder would escape is left to encoding/json.
	codectest.Accepts(t, []Entry(nil))
	if codectest.CheckAppend(t, []Entry{{Addr: transport.Addr{Host: `quo"te`}}}) {
		t.Error("a host that needs escaping was not declined")
	}
	for _, src := range []string{`[{"addr":null,"age":1}]`, `[{"Age":1}]`, `[{"age":1.0}]`, `[{"x":1}]`} {
		var e []Entry
		if llenc.ParseDerived([]byte(src), &e) {
			t.Errorf("ParseDerived accepted %s", src)
		}
		codectest.Check(t, []byte(src), receivers...)
	}
}

// FuzzEntries feeds arbitrary bytes to the shuffle list's derived codec
// under the house oracle (see codectest.Check).
func FuzzEntries(f *testing.F) {
	for _, src := range []string{
		`[]`, `null`, `[{"addr":{"host":"n1","port":8000},"age":2}]`,
		` [ { "age" : 1 } , {"addr":{"port":9}} , {} ] `,
		`[{"addr":{"host":"a","host":"b"},"age":1,"age":2},{"addr":{"port":1},"addr":{"host":"h"}}]`,
		`[{"addr":{"host":"é"},"age":-0}]`, `[{"addr":{"host":"a\u0062"}}]`, `[{"age":1e2}]`,
		`[{"age":9223372036854775808}]`, `[{"age":1},]`, `[{"age":1}]x`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) { codectest.Check(t, data, receivers...) })
}
