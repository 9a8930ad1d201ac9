package simnet

import (
	"testing"
	"time"

	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/transport"
)

// poolSizes counts every partition's delivery and payload-buffer free
// lists.
func poolSizes(nw *Network) (dlv, buf []int) {
	for i := range nw.parts {
		dlv = append(dlv, len(nw.parts[i].freeDlv.items))
		buf = append(buf, len(nw.parts[i].freeBuf.items))
	}
	return dlv, buf
}

// TestOneWayStreamKeepsPoolsBounded: deliveries and payload buffers recycle
// into the receiving partition's pools, so a one-way cross-partition stream
// — metric reports flowing to the monitoring host — drains the sender's
// pools into the receiver's. Levelled at the barriers, every partition's
// pools stay bounded by what is in flight, not by how many messages went
// through.
func TestOneWayStreamKeepsPoolsBounded(t *testing.T) {
	const (
		msgs  = 20000
		every = 100 * time.Microsecond // 50 messages per 5 ms one-way trip
	)
	pk := sim.NewParKernel(2, 1, 5*time.Millisecond)
	nw, err := NewPartitioned(pk, Symmetric{RTT: 10 * time.Millisecond}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sent, recv, peak int
	pk.Go(1, func() {
		l, _ := nw.Node(1).Listen(80)
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		for recv < msgs {
			if _, err := c.Read(buf); err != nil {
				t.Error(err)
				return
			}
			recv++
		}
	})
	pk.Go(0, func() {
		c, err := nw.Node(0).Dial(transport.Addr{Host: "n1", Port: 80}, 0)
		if err != nil {
			t.Error(err)
			return
		}
		msg := make([]byte, 64)
		for ; sent < msgs; sent++ {
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
				return
			}
			pk.Sub(0).Sleep(every)
		}
	})
	// Sample the messages in flight at every barrier (the counters are
	// written by the two partitions, read here while neither runs).
	pk.AddBarrierHook(func() { peak = max(peak, sent-recv) })
	dlv0, buf0 := poolSizes(nw)
	pk.Run()
	dlv, buf := poolSizes(nw)
	t.Logf("%d messages, in-flight peak %d: delivery pools %v → %v, buffer pools %v → %v",
		msgs, peak, dlv0, dlv, buf0, buf)
	if recv != msgs {
		t.Fatalf("received %d of %d messages", recv, msgs)
	}
	for p := range dlv {
		if bound := 3*peak + poolSlack; dlv[p] > bound || buf[p] > bound {
			t.Errorf("partition %d pools hold %d deliveries and %d buffers after %d messages; in-flight peak %d bounds them at %d",
				p, dlv[p], buf[p], msgs, peak, bound)
		}
	}
}

// TestFreeListReleasesWhatSatUnused: a release drops exactly the entries
// no pop reached since the last one — the bottom of the stack, down to its
// low-water mark — and trims the backing array; entries a steady load
// keeps cycling through stay, however many there are.
func TestFreeListReleasesWhatSatUnused(t *testing.T) {
	var f freeList[int]
	for i := 0; i < 1000; i++ {
		f.push(i)
	}
	f.release() // given back during the epoch: not unused for the whole of it
	if len(f.items) != 1000 {
		t.Fatalf("the first release kept %d of the 1,000 entries pushed during its epoch", len(f.items))
	}
	f.release() // an epoch without a pop: all 1,000 sat unused
	if len(f.items) != 0 || cap(f.items) > 16 {
		t.Fatalf("after an epoch without a pop the list holds %d entries in %d slots, want 0 in at most 16", len(f.items), cap(f.items))
	}
	for i := 0; i < 100; i++ {
		f.push(i)
	}
	f.release()
	// A steady load: each epoch takes 60 entries and gives them back.
	for epoch := 0; epoch < 3; epoch++ {
		var taken []int
		for i := 0; i < 60; i++ {
			x, ok := f.pop()
			if !ok {
				t.Fatalf("epoch %d: the list ran dry after %d pops", epoch, i)
			}
			taken = append(taken, x)
		}
		for _, x := range taken {
			f.push(x)
		}
		f.release()
		if len(f.items) != 60 {
			t.Fatalf("epoch %d: %d entries kept, want the 60 the load cycles through", epoch, len(f.items))
		}
	}
}

// TestSmallBufferSurvivesLargeWrite: a write larger than every pooled
// buffer gets a new one and leaves the pooled ones listed, so the next
// small write reuses the small buffer on top instead of allocating; a
// write that fits a buffer just under the top takes that one.
func TestSmallBufferSurvivesLargeWrite(t *testing.T) {
	var pt netPart
	mid, small := make([]byte, 1024), make([]byte, 64)
	pt.putBuf(mid)
	pt.putBuf(small)
	if big := pt.getBuf(4096); len(big) != 4096 {
		t.Fatalf("a 4,096-byte write got a buffer of length %d", len(big))
	}
	if n := len(pt.freeBuf.items); n != 2 {
		t.Fatalf("the free list holds %d buffers after the large write, want both pooled ones", n)
	}
	if b := pt.getBuf(32); len(b) != 32 || &b[0] != &small[0] {
		t.Fatal("the next small write did not reuse the small pooled buffer")
	}
	pt.putBuf(small)
	if b := pt.getBuf(512); len(b) != 512 || &b[0] != &mid[0] {
		t.Fatal("a 512-byte write did not take the 1,024-byte buffer under the small one")
	}
	if len(pt.freeBuf.items) != 1 || &pt.freeBuf.items[0][0] != &small[0] {
		t.Fatal("taking the buffer under the top did not leave the small one listed")
	}
}
