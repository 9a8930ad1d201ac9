package chord

import (
	"testing"

	"github.com/splaykit/splay/internal/llenc/codectest"
	"github.com/splaykit/splay/internal/transport"
)

// oldRef is what the non-zero receivers hold: encoding/json only writes
// the members it meets, so an input that omits one must keep these.
var oldRef = NodeRef{ID: 77, Addr: transport.Addr{Host: "old", Port: 9}}

var (
	refReceivers  = []func() NodeRef{func() NodeRef { return NodeRef{} }, func() NodeRef { return oldRef }}
	findReceivers = []func() findResult{
		func() findResult { return findResult{} },
		func() findResult { return findResult{Node: oldRef, Hops: 5} },
	}
	// The second list has a stale reference in its spare capacity, which
	// encoding/json decodes a second element into.
	listReceivers = []func() nodeRefs{
		func() nodeRefs { return nil },
		func() nodeRefs { return nodeRefs{oldRef, {ID: 88, Addr: transport.Addr{Host: "stale"}}}[:1] },
	}
)

// checkWire runs one input through all three codecs' oracles.
func checkWire(t *testing.T, data []byte) {
	codectest.Check(t, data, refReceivers...)
	codectest.Check(t, data, findReceivers...)
	codectest.Check(t, data, listReceivers...)
}

// TestHotMessagesTakeTheFastPath pins that what notify, predecessor,
// find_successor and successors carry rides its codec in both directions.
func TestHotMessagesTakeTheFastPath(t *testing.T) {
	ref := NodeRef{ID: 1<<64 - 1, Addr: transport.Addr{Host: "n204", Port: 20000}}
	codectest.Accepts(t, NodeRef{})
	codectest.Accepts(t, ref)
	codectest.Accepts(t, findResult{})
	codectest.Accepts(t, findResult{Node: ref, Hops: 11})
	codectest.Accepts(t, nodeRefs{})
	codectest.Accepts(t, nodeRefs{ref, {}})
	if !codectest.CheckAppend(t, nodeRefs(nil)) {
		t.Error("a nil list declined")
	}
	// A host encoding/json would escape declines at every nesting depth.
	esc := NodeRef{ID: 1, Addr: transport.Addr{Host: "<h>"}}
	if codectest.CheckAppend(t, esc) || codectest.CheckAppend(t, findResult{Node: esc}) || codectest.CheckAppend(t, nodeRefs{ref, esc}) {
		t.Error("a host that needs escaping was not declined")
	}
	for _, src := range []string{`null`, `{"id":null}`, `{"ID":1}`, `{"id":1.0}`, `{"id":-1}`, `{"node":null}`, `{"hops":1e1}`, `{"x":1}`} {
		var r NodeRef
		var f findResult
		if r.ParseJSON([]byte(src)) || f.ParseJSON([]byte(src)) {
			t.Errorf("ParseJSON accepted %s", src)
		}
		checkWire(t, []byte(src))
	}
}

// FuzzWire feeds arbitrary bytes to the three codecs under the house
// oracle (see codectest.Check).
func FuzzWire(f *testing.F) {
	for _, src := range []string{
		`{}`, `[]`, `null`, `{"id":18446744073709551615,"addr":{"host":"n1","port":8000}}`,
		`{"node":{"id":5,"addr":{"host":"n2","port":1}},"hops":3}`,
		`[{"id":1,"addr":{"host":"a","port":1}},{"addr":{"port":2}},{}]`,
		` { "addr" : { "port" : 3 } , "id" : 4 , "id" : 5 } `,
		`{"node":{"id":1},"node":{"addr":{"host":"h"}},"hops":-0}`,
		`{"id":18446744073709551616}`, `{"id":01}`, `{"addr":{"host":"é"}}`, `{"addr":{"host":"a\u0062"}}`,
		`{"hops":9223372036854775808}`, `[{"id":1},]`, `{"id":1}x`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(checkWire)
}
