package rpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/livenet"
	"github.com/splaykit/splay/internal/transport"
)

// TestRegisterWhileServingUnderLiveRuntime pins the handlers-map guard:
// an application may install handlers after Start under LiveRuntime
// (the paper's apps register lazily as subsystems come up), which races
// the serve loop's method lookups without the RWMutex. Several clients
// hammer the server over real loopback TCP while new methods register
// concurrently; the race detector is the assertion, plus every call to
// a just-registered method must succeed. Part of the PR 2-style race
// suite (go test -race -short).
func TestRegisterWhileServingUnderLiveRuntime(t *testing.T) {
	t.Parallel()
	rt := core.NewLiveRuntime(1)
	node := livenet.NewNode("127.0.0.1")
	sctx := core.NewAppContext(rt, node, core.JobInfo{}, nil)
	defer sctx.Kill()

	srv := NewServer(sctx)
	srv.Register("echo", func(args Args) (any, error) { return args.String(0), nil })
	if err := srv.Start(0); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Close()
	addr := transport.Addr{Host: "127.0.0.1", Port: srv.Addr().Port}

	stop := make(chan struct{})
	var regWg sync.WaitGroup
	regWg.Add(1)
	go func() {
		defer regWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("late%d", i%32)
			srv.Register(name, func(args Args) (any, error) { return args.Int(0) + 1, nil })
		}
	}()

	// Four clients (one per goroutine: a Client is owned by one
	// instance/task) issue calls against both the stable and the
	// just-registered methods.
	errs := make(chan error, 4)
	var clientWg sync.WaitGroup
	for g := 0; g < 4; g++ {
		clientWg.Add(1)
		go func(g int) {
			defer clientWg.Done()
			cctx := core.NewAppContext(rt, livenet.NewNode("127.0.0.1"), core.JobInfo{}, nil)
			defer cctx.Kill()
			c := NewClient(cctx)
			for i := 0; i < 60; i++ {
				if _, err := c.CallTimeout(addr, 10*time.Second, "echo", "x"); err != nil {
					errs <- fmt.Errorf("client %d echo: %w", g, err)
					return
				}
				name := fmt.Sprintf("late%d", i%32)
				res, err := c.CallTimeout(addr, 10*time.Second, name, i)
				if err != nil {
					// Not yet registered is fine; a transport error is not.
					var re *RemoteError
					if !errors.As(err, &re) {
						errs <- fmt.Errorf("client %d %s: %w", g, name, err)
						return
					}
					continue
				}
				var got int
				if res.Decode(&got); got != i+1 {
					errs <- fmt.Errorf("client %d %s = %d, want %d", g, name, got, i+1)
					return
				}
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { clientWg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-errs:
		close(stop)
		regWg.Wait()
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		close(stop)
		regWg.Wait()
		t.Fatal("race test timed out")
	}
	close(stop)
	regWg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestEvictionRacesLiveCalls: under LiveRuntime a dial on one goroutine
// may evict a peer another goroutine has just taken from the pool and not
// yet called on. Fifteen calls held open on their own servers keep the
// rest of the pool busy, so the one hot peer a caller hammers is the only
// one a dial can evict; two goroutines dial a closed port in a loop, and
// every such dial evicts the hot peer whenever it is idle — often in that
// window. Every hot call must succeed (a call whose peer was evicted
// under it redials); the race detector checks the pool's bookkeeping.
func TestEvictionRacesLiveCalls(t *testing.T) {
	t.Parallel()
	rt := core.NewLiveRuntime(1)
	release := make(chan struct{})
	server := func() (*core.AppContext, transport.Addr) {
		sctx := core.NewAppContext(rt, livenet.NewNode("127.0.0.1"), core.JobInfo{}, nil)
		t.Cleanup(sctx.Kill)
		srv := NewServer(sctx)
		srv.Register("echo", func(args Args) (any, error) { return args.Int(0), nil })
		srv.Register("hold", func(args Args) (any, error) { <-release; return nil, nil })
		if err := srv.Start(0); err != nil {
			t.Fatalf("start: %v", err)
		}
		return sctx, transport.Addr{Host: "127.0.0.1", Port: srv.Addr().Port}
	}
	cctx := core.NewAppContext(rt, livenet.NewNode("127.0.0.1"), core.JobInfo{}, nil)
	defer cctx.Kill()
	c := NewClient(cctx)

	var holders sync.WaitGroup
	for i := 0; i < maxPooledPeers-1; i++ {
		_, a := server()
		holders.Add(1)
		go func() {
			defer holders.Done()
			if _, err := c.CallTimeout(a, 30*time.Second, "hold"); err != nil {
				t.Errorf("held call: %v", err)
			}
		}()
	}
	defer holders.Wait()
	defer close(release)
	_, hot := server()
	gone, closed := server()
	gone.Kill() // its port now refuses: every dial there fails at once

	stop := make(chan struct{})
	var dialers sync.WaitGroup
	defer dialers.Wait()
	defer close(stop)
	for g := 0; g < 2; g++ {
		dialers.Add(1)
		go func() {
			defer dialers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.CallTimeout(closed, time.Second, "echo", 0) //nolint:errcheck
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if _, err := c.CallTimeout(hot, 10*time.Second, "echo", i); err != nil {
			t.Fatalf("hot call %d: %v", i, err)
		}
	}
}
