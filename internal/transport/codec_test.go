package transport

import (
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
)

// addrReceivers: encoding/json only writes the members it meets, so an
// input that omits one must keep the old address's.
var addrReceivers = []func() Addr{
	func() Addr { return Addr{} },
	func() Addr { return Addr{Host: "old", Port: 9} },
}

// TestAddrCodec pins what the one address codec accepts (every shape the
// platform's own hosts take) and what it must leave to encoding/json.
func TestAddrCodec(t *testing.T) {
	for _, a := range []Addr{{}, {Host: "n17", Port: 20001}, {Host: "10.0.0.1"}, {Port: -1}, {Host: "::1", Port: 65535}, {Host: "sp ace"}} {
		codectest.Accepts(t, a)
	}
	for _, a := range []Addr{{Host: `q"uote`}, {Host: `back\slash`}, {Host: "<html>"}, {Host: "ünï"}, {Host: "ctl\x01"}} {
		if codectest.CheckAppend(t, a) {
			t.Errorf("AppendJSON accepted %q, which encoding/json escapes", a.Host)
		}
	}
	for _, src := range []string{`null`, `{"host":null}`, `{"Host":"a"}`, `{"port":1.0}`, `{"port":"1"}`, `{"host":"a\u0062"}`, `{"x":1}`, `[]`} {
		var a Addr
		if llenc.ParseDerived([]byte(src), &a) {
			t.Errorf("ParseDerived accepted %s", src)
		}
		codectest.Check(t, []byte(src), addrReceivers...)
	}
}

// FuzzAddr feeds arbitrary bytes to the address codec under the house
// oracle (see codectest.Check).
func FuzzAddr(f *testing.F) {
	for _, src := range []string{
		`{}`, `null`, `{"host":"n1","port":8000}`, ` { "port" : 3 , "host" : "h" } `,
		`{"host":"a","host":"b","port":1,"port":2}`, `{"port":-0}`, `{"port":01}`,
		`{"host":"é"}`, `{"host":"a\u0062"}`, `{"host":"\xff"}`, `{"port":9223372036854775808}`,
		`{"port":1e2}`, `{"port":1}x`, `{"port":1,}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) { codectest.Check(t, data, addrReceivers...) })
}
