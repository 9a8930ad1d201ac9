package cyclon

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/stream"
	"github.com/splaykit/splay/internal/transport"
)

func buildCyclon(t *testing.T, n int) (*sim.Kernel, []*Node) {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: 20 * time.Millisecond}, n, 1)
	rt := core.NewSimRuntime(k, 1)
	var nodes []*Node
	for i := 0; i < n; i++ {
		addr := transport.Addr{Host: simnet.HostName(i), Port: 8100}
		ctx := core.NewAppContext(rt, nw.Node(i), core.JobInfo{Me: addr}, nil)
		nodes = append(nodes, New(ctx, DefaultConfig()))
	}
	k.Go(func() {
		for i, node := range nodes {
			// Bootstrap as a thick ring: each node knows its next ten
			// successors (Cyclon conserves the total number of view
			// entries, so bootstrap views determine view sizes).
			var seeds []transport.Addr
			for j := 1; j <= 10; j++ {
				seeds = append(seeds, transport.Addr{Host: simnet.HostName((i + j) % n), Port: 8100})
			}
			if err := node.Start(seeds); err != nil {
				t.Errorf("start %d: %v", i, err)
			}
		}
	})
	return k, nodes
}

func TestShufflesMixTheRing(t *testing.T) {
	const n = 64
	k, nodes := buildCyclon(t, n)
	k.RunFor(5 * time.Minute)

	// Views fill up toward the configured size.
	for i, node := range nodes {
		if len(node.View()) < 10 {
			t.Fatalf("node %d view only %d entries", i, len(node.View()))
		}
		if node.Shuffles == 0 {
			t.Fatalf("node %d never shuffled", i)
		}
	}
	// In-degree spread: after mixing, no node should be missing from all
	// views and none should dominate.
	indeg := map[string]int{}
	for _, node := range nodes {
		for _, e := range node.View() {
			indeg[e.Addr.String()]++
		}
	}
	if len(indeg) < n*9/10 {
		t.Fatalf("only %d/%d nodes referenced by any view", len(indeg), n)
	}
	min, max := 1<<30, 0
	for _, d := range indeg {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max > 20*min+20 {
		t.Fatalf("in-degree skew too high: min=%d max=%d", min, max)
	}
}

func TestViewsNeverContainSelfOrDuplicates(t *testing.T) {
	k, nodes := buildCyclon(t, 16)
	k.RunFor(2 * time.Minute)
	for i, node := range nodes {
		seen := map[string]bool{}
		for _, e := range node.View() {
			if e.Addr == node.self {
				t.Fatalf("node %d has self in view", i)
			}
			if seen[e.Addr.String()] {
				t.Fatalf("node %d has duplicate %s", i, e.Addr)
			}
			seen[e.Addr.String()] = true
		}
		if len(node.View()) > node.cfg.ViewSize {
			t.Fatalf("node %d view exceeds capacity", i)
		}
	}
}

func TestDeadPeersEventuallyDropped(t *testing.T) {
	k, nodes := buildCyclon(t, 16)
	k.RunFor(time.Minute)
	// Kill node 3; within a few shuffle periods its entry must vanish
	// from every view (failed shuffles drop it; entries sent away age out).
	k.Go(func() {
		nodes[3].Stop()
		nodes[3].ctx.Kill()
	})
	k.RunFor(5 * time.Minute)
	dead := nodes[3].self.String()
	holders := 0
	for i, node := range nodes {
		if i == 3 {
			continue
		}
		for _, e := range node.View() {
			if e.Addr.String() == dead {
				holders++
			}
		}
	}
	if holders > 4 {
		t.Fatalf("dead peer still in %d views", holders)
	}
}

// refMerge is the merge the package shipped before the one-pass
// eviction: contains, insert and evictOneOf, rescanning the candidates
// against the whole view for every incoming entry. It is the oracle the
// current merge must match.
func refMerge(n *Node, in, sacrificable []Entry) {
	contains := func(a transport.Addr) bool {
		for i := range n.view {
			if n.view[i].Addr == a {
				return true
			}
		}
		return false
	}
	insert := func(e Entry) {
		for i := range n.view {
			if n.view[i].Addr == e.Addr {
				if e.Age < n.view[i].Age {
					n.view[i].Age = e.Age
				}
				return
			}
		}
		n.view = append(n.view, e)
	}
	evictOneOf := func(candidates []Entry) bool {
		for _, c := range candidates {
			for i := range n.view {
				if n.view[i].Addr == c.Addr {
					n.view = append(n.view[:i], n.view[i+1:]...)
					return true
				}
			}
		}
		return false
	}
	for _, e := range in {
		if e.Addr == n.self {
			continue
		}
		if contains(e.Addr) {
			insert(e)
			continue
		}
		if len(n.view) >= n.cfg.ViewSize && !evictOneOf(sacrificable) {
			continue
		}
		insert(e)
	}
}

// refSample is sample as it was: rand.Perm's index order over the view.
func refSample(view []Entry, rng *rand.Rand, l int, skip transport.Addr) []Entry {
	out := []Entry{}
	for _, i := range rng.Perm(len(view)) {
		if len(out) >= l {
			break
		}
		if view[i].Addr != skip {
			out = append(out, view[i])
		}
	}
	return out
}

// randEntries draws k entries over a small address universe, so lists
// collide with the view, with each other and with self; distinct keeps
// addresses unique, as a view's are.
func randEntries(rng *rand.Rand, k int, distinct bool) []Entry {
	var out []Entry
	seen := map[int]bool{}
	for len(out) < k {
		h := rng.Intn(48)
		if distinct && seen[h] {
			continue
		}
		seen[h] = true
		out = append(out, Entry{Addr: transport.Addr{Host: simnet.HostName(h), Port: 8100}, Age: rng.Intn(6)})
	}
	return out
}

// TestMergeMatchesReference drives the one-pass merge and the reference
// from identical views over seeded random inputs — views below, at and
// above ViewSize (Start keeps every bootstrap peer), incoming lists with
// self and duplicates, sacrificable lists that miss the view, repeat
// themselves or name incoming peers — and requires identical views.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	self := transport.Addr{Host: simnet.HostName(0), Port: 8100}
	for trial := 0; trial < 20000; trial++ {
		viewSize := 1 + rng.Intn(12)
		view := randEntries(rng, rng.Intn(viewSize+8), true)
		view = slices.DeleteFunc(view, func(e Entry) bool { return e.Addr == self })
		in := randEntries(rng, rng.Intn(12), rng.Intn(2) == 0)
		sacrificable := randEntries(rng, rng.Intn(10), rng.Intn(4) != 0)
		if rng.Intn(3) == 0 && len(view) > 0 { // sent entries come from the view
			sacrificable = append(sacrificable[:0], view[:rng.Intn(len(view))]...)
		}
		got := &Node{cfg: Config{ViewSize: viewSize}, self: self, view: slices.Clone(view)}
		want := &Node{cfg: Config{ViewSize: viewSize}, self: self, view: slices.Clone(view)}
		got.merge(in, sacrificable)
		refMerge(want, in, sacrificable)
		if !slices.Equal(got.view, want.view) {
			t.Fatalf("trial %d: view %v, size %d, in %v, sacrificable %v:\n got %v\nwant %v",
				trial, view, viewSize, in, sacrificable, got.view, want.view)
		}
	}
}

// TestSampleMatchesPerm pins that sample visits the view in rand.Perm's
// order and leaves the RNG where Perm leaves it, for views that fit the
// stack buffer and views that do not.
func TestSampleMatchesPerm(t *testing.T) {
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 1, 1)
	for _, size := range []int{0, 1, 2, 7, 20, 64, 65, 150} {
		for _, l := range []int{0, 1, 7, 8, 200} {
			const seed = 7
			ctx := core.NewAppContext(core.NewSimRuntime(k, seed), nw.Node(0), core.JobInfo{}, nil)
			view := make([]Entry, size)
			for i := range view {
				view[i] = Entry{Addr: transport.Addr{Host: simnet.HostName(i), Port: 8100}, Age: i % 5}
			}
			skip := transport.Addr{Host: simnet.HostName(size / 2), Port: 8100}
			n := &Node{ctx: ctx, cfg: Config{ShuffleLen: l + 1}, view: view} // as the initiator samples
			ref := stream.Rand(seed, "", 0)                                  // the stream of a context with no app and no position
			got, want := n.sample(l, skip), refSample(view, ref, l, skip)
			if !slices.Equal(got, want) {
				t.Fatalf("view %d, l %d: sample %v, rand.Perm order %v", size, l, got, want)
			}
			if cap(got) <= len(got) {
				t.Errorf("view %d, l %d: no spare slot for the self-entry (len %d, cap %d)", size, l, len(got), cap(got))
			}
			if a, b := ctx.Rand().Int63(), ref.Int63(); a != b {
				t.Fatalf("view %d, l %d: RNG state after sample differs from after rand.Perm", size, l)
			}
		}
	}
}
