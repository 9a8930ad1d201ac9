package bittorrent

import (
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
	"github.com/splaykit/splay/internal/transport"
)

// TestHotMessagesTakeTheFastPath pins that what the swarm exchanges takes
// the derived codec both ways: the handshake bitfield and the tracker's
// peer list. A piece is a []byte, which encoding/json carries as base64;
// no plan covers it, so it stays on encoding/json.
func TestHotMessagesTakeTheFastPath(t *testing.T) {
	codectest.Accepts(t, []bool{true, false, false, true})
	codectest.Accepts(t, []bool{})
	codectest.Accepts(t, []transport.Addr{{Host: "n3", Port: 6881}, {}})
	if codectest.CheckAppend(t, []byte{1, 2, 3}) {
		t.Error("a piece took the derived codec")
	}
	var piece []byte
	if llenc.ParseDerived([]byte(`"AQID"`), &piece) {
		t.Error("a piece took the derived codec")
	}
}
