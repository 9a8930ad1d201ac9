package pastry

import (
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
	"github.com/splaykit/splay/internal/transport"
)

// oldRef is what the non-zero receivers hold: encoding/json only writes
// the members it meets, so an input that omits one must keep these.
var oldRef = NodeRef{ID: 0xfeed, Addr: transport.Addr{Host: "old", Port: 9}}

var (
	idReceivers    = []func() ID{func() ID { return 0 }, func() ID { return 0xfeed }}
	refReceivers   = []func() NodeRef{func() NodeRef { return NodeRef{} }, func() NodeRef { return oldRef }}
	routeReceivers = []func() routeResult{
		func() routeResult { return routeResult{} },
		func() routeResult { return routeResult{Root: oldRef, Hops: 5} },
	}
)

// checkWire runs one input through the three messages' oracles.
func checkWire(t *testing.T, data []byte) {
	codectest.Check(t, data, idReceivers...)
	codectest.Check(t, data, refReceivers...)
	codectest.Check(t, data, routeReceivers...)
}

// TestHotMessagesTakeTheFastPath pins that what the route hop carries —
// key, reference, result — and what joins and repairs carry — the
// join_route reply, a leaf set, a table entry — ride the derived codec
// in both directions.
func TestHotMessagesTakeTheFastPath(t *testing.T) {
	ref := NodeRef{ID: 1<<64 - 1, Addr: transport.Addr{Host: "n204", Port: 20000}}
	codectest.Accepts(t, ID(0))
	codectest.Accepts(t, ID(0x0123456789abcdef))
	codectest.Accepts(t, ID(1<<64-1))
	codectest.Accepts(t, NodeRef{})
	codectest.Accepts(t, ref)
	codectest.Accepts(t, routeResult{})
	codectest.Accepts(t, routeResult{Root: ref, Hops: 7})
	codectest.Accepts(t, []NodeRef{ref, {}})
	codectest.Accepts(t, joinInfo{})
	codectest.Accepts(t, joinInfo{Path: []NodeRef{ref}, Rows: [][]NodeRef{{ref, {}}, nil, {}}, Leafset: []NodeRef{}})
	// A host encoding/json would escape declines at every nesting depth.
	esc := NodeRef{ID: 1, Addr: transport.Addr{Host: "a&b"}}
	if codectest.CheckAppend(t, esc) || codectest.CheckAppend(t, routeResult{Root: esc}) ||
		codectest.CheckAppend(t, joinInfo{Rows: [][]NodeRef{{esc}}}) {
		t.Error("a host that needs escaping was not declined")
	}
	// Forms UnmarshalText reads and the plan may too, under the oracle;
	// and forms both must refuse.
	for _, src := range []string{`"2A"`, `"00000000000000FF"`, `"0x1f"`, `"1_0"`, `"+1"`, `""`, `"10000000000000000"`, `"1"`, `null`, `17`} {
		checkWire(t, []byte(src))
	}
	for _, src := range []string{`null`, `{"id":null}`, `{"ID":"01"}`, `{"id":1}`, `{"root":null}`, `{"hops":1e1}`, `{"x":1}`} {
		var r NodeRef
		var rr routeResult
		if llenc.ParseDerived([]byte(src), &r) || llenc.ParseDerived([]byte(src), &rr) {
			t.Errorf("ParseDerived accepted %s", src)
		}
		checkWire(t, []byte(src))
	}
}

// FuzzWire feeds arbitrary bytes to the three messages' derived codecs
// under the house oracle (see codectest.Check).
func FuzzWire(f *testing.F) {
	for _, src := range []string{
		`{}`, `null`, `"000000000000002a"`, `"FFFFFFFFFFFFFFFF"`, `"2a"`, `"g0"`, `"-1"`, ` "01" `,
		`{"id":"ffffffffffffffff","addr":{"host":"n1","port":8000}}`,
		`{"root":{"id":"0000000000000005","addr":{"host":"n2","port":1}},"hops":3}`,
		` { "addr" : { "port" : 3 } , "id" : "04" , "id" : "05" } `,
		`{"root":{"id":"1"},"root":{"addr":{"host":"h"}},"hops":-0}`,
		`{"id":"10000000000000000"}`, `{"id":""}`, `{"addr":{"host":"é"}}`, `{"addr":{"host":"a\u0062"}}`,
		`{"hops":9223372036854775808}`, `{"id":"1"}x`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(checkWire)
}
