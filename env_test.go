package splay_test

// Tests for the Env capability surface: the sandbox limits (fs + socket
// quotas) enforced through the SDK, and denied-capability errors for
// everything a grant withholds.

import (
	"errors"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// newTestEnv builds an Env over a two-host simulated network.
func newTestEnv(t *testing.T, cfg splay.EnvConfig) (*splay.Env, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
	rt := core.NewSimRuntime(k, 1)
	ctx := core.NewAppContext(rt, nw.Node(0),
		core.JobInfo{Me: transport.Addr{Host: simnet.HostName(0), Port: 9000}}, nil)
	return splay.NewEnv(ctx, cfg), k
}

func TestEnvFSQuotaExhaustion(t *testing.T) {
	t.Parallel()
	env, _ := newTestEnv(t, splay.EnvConfig{
		FS: splay.FSLimits{MaxBytes: 8, MaxOpenFiles: 1},
	})
	fs, err := env.FS()
	if err != nil {
		t.Fatalf("FS: %v", err)
	}
	f, err := fs.Create("data")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write(make([]byte, 8)); err != nil {
		t.Fatalf("write within quota: %v", err)
	}
	if _, err := f.Write([]byte{1}); !errors.Is(err, splay.ErrQuota) {
		t.Fatalf("write beyond quota: err = %v, want ErrQuota", err)
	}
	// Descriptor quota: the one open handle exhausts it.
	if _, err := fs.Create("other"); !errors.Is(err, splay.ErrTooManyFiles) {
		t.Fatalf("second open: err = %v, want ErrTooManyFiles", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := fs.Open("data"); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestEnvSocketQuotaExhaustion(t *testing.T) {
	t.Parallel()
	env, _ := newTestEnv(t, splay.EnvConfig{
		Net: splay.NetLimits{MaxSockets: 2},
	})
	l1, err := env.Listen(1000)
	if err != nil {
		t.Fatalf("first listen: %v", err)
	}
	if _, err := env.Listen(1001); err != nil {
		t.Fatalf("second listen: %v", err)
	}
	if _, err := env.Listen(1002); !errors.Is(err, splay.ErrLimit) {
		t.Fatalf("third listen: err = %v, want ErrLimit", err)
	}
	l1.Close()
	if _, err := env.ListenPacket(1003); err != nil {
		t.Fatalf("listen after release: %v", err)
	}
}

func TestEnvTxQuotaAndBlacklist(t *testing.T) {
	t.Parallel()
	env, k := newTestEnv(t, splay.EnvConfig{
		Net: splay.NetLimits{MaxTxBytes: 4, Blacklist: []string{simnet.HostName(1)}},
	})
	var dialErr error
	k.Go(func() {
		_, dialErr = env.Dial(transport.Addr{Host: simnet.HostName(1), Port: 80}, time.Second)
	})
	k.Run()
	if !errors.Is(dialErr, splay.ErrBlacklisted) {
		t.Fatalf("dial to blacklisted host: err = %v, want ErrBlacklisted", dialErr)
	}
	// The bridge for protocol libraries is the same restricted stack.
	bridge := env.AppContext().Node()
	k.Go(func() {
		_, dialErr = bridge.Dial(transport.Addr{Host: simnet.HostName(1), Port: 80}, time.Second)
	})
	k.Run()
	if !errors.Is(dialErr, splay.ErrBlacklisted) {
		t.Fatalf("bridge dial to blacklisted host: err = %v, want ErrBlacklisted", dialErr)
	}
	// Loopback stream: the env-level tx quota bites after 4 bytes,
	// whichever surface the connection was dialed from.
	var wErr, bridgeErr error
	k.Go(func() {
		ln, err := env.Listen(2000)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		env.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 16)
			c.Read(buf) //nolint:errcheck
		})
		c, err := env.Dial(transport.Addr{Host: simnet.HostName(0), Port: 2000}, time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if _, err := c.Write([]byte("1234")); err != nil {
			t.Errorf("write within quota: %v", err)
			return
		}
		_, wErr = c.Write([]byte("5"))
		bc, err := bridge.Dial(transport.Addr{Host: simnet.HostName(0), Port: 2000}, time.Second)
		if err != nil {
			t.Errorf("bridge dial: %v", err)
			return
		}
		_, bridgeErr = bc.Write([]byte("5"))
	})
	k.Run()
	if !errors.Is(wErr, splay.ErrLimit) {
		t.Fatalf("write beyond tx quota: err = %v, want ErrLimit", wErr)
	}
	if !errors.Is(bridgeErr, splay.ErrLimit) {
		t.Fatalf("write beyond tx quota on a conn dialed from AppContext().Node(): err = %v, want ErrLimit", bridgeErr)
	}
}

func TestEnvDeniedCapabilities(t *testing.T) {
	t.Parallel()
	var capErr *splay.CapabilityError

	// Net-only grant: the filesystem is denied.
	netOnly, _ := newTestEnv(t, splay.EnvConfig{Caps: splay.CapNet})
	if _, err := netOnly.FS(); !errors.As(err, &capErr) || capErr.Cap != splay.CapFS {
		t.Fatalf("FS with net-only grant: err = %v, want CapabilityError{CapFS}", err)
	}
	if _, err := netOnly.Listen(1000); err != nil {
		t.Fatalf("granted capability failed: %v", err)
	}

	// FS-only grant: every socket surface is denied.
	fsOnly, k := newTestEnv(t, splay.EnvConfig{Caps: splay.CapFS})
	if _, err := fsOnly.Listen(1000); !errors.As(err, &capErr) || capErr.Cap != splay.CapNet {
		t.Fatalf("Listen: err = %v, want CapabilityError{CapNet}", err)
	}
	if _, err := fsOnly.ListenPacket(1000); !errors.As(err, &capErr) {
		t.Fatalf("ListenPacket: err = %v, want CapabilityError", err)
	}
	var dialErr error
	k.Go(func() { _, dialErr = fsOnly.Dial(transport.Addr{Host: "n1", Port: 80}, time.Second) })
	k.Run()
	if !errors.As(dialErr, &capErr) {
		t.Fatalf("Dial: err = %v, want CapabilityError", dialErr)
	}
	if _, err := fsOnly.Node(); !errors.As(err, &capErr) {
		t.Fatalf("Node: err = %v, want CapabilityError", err)
	}
	// ... and so is the engine context's node, the bridge protocol
	// libraries open their sockets on.
	bridge := fsOnly.AppContext().Node()
	capErr = nil
	if _, err := bridge.Listen(1000); !errors.As(err, &capErr) || capErr.Cap != splay.CapNet {
		t.Fatalf("AppContext().Node().Listen: err = %v, want CapabilityError{CapNet}", err)
	}
	capErr = nil
	k.Go(func() { _, dialErr = bridge.Dial(transport.Addr{Host: "n1", Port: 80}, time.Second) })
	k.Run()
	if !errors.As(dialErr, &capErr) || capErr.Cap != splay.CapNet {
		t.Fatalf("AppContext().Node().Dial: err = %v, want CapabilityError{CapNet}", dialErr)
	}
	if _, err := fsOnly.NewRPCServer(); !errors.As(err, &capErr) {
		t.Fatalf("NewRPCServer: err = %v, want CapabilityError", err)
	}
	if _, err := fsOnly.NewRPCClient(); !errors.As(err, &capErr) {
		t.Fatalf("NewRPCClient: err = %v, want CapabilityError", err)
	}
	if _, err := fsOnly.FS(); err != nil {
		t.Fatalf("granted capability failed: %v", err)
	}

	// No collector wired: reporting is refused.
	if err := fsOnly.StartReporting(); !errors.Is(err, splay.ErrNoCollector) {
		t.Fatalf("StartReporting: err = %v, want ErrNoCollector", err)
	}
}

func TestEnvKillClosesTrackedSockets(t *testing.T) {
	t.Parallel()
	env, k := newTestEnv(t, splay.EnvConfig{})
	killed := false
	env.OnKill(func() { killed = true })
	var ln splay.Listener
	k.Go(func() {
		var err error
		ln, err = env.Listen(3000)
		if err != nil {
			t.Errorf("listen: %v", err)
		}
	})
	k.Run()
	env.AppContext().Kill()
	if !killed {
		t.Fatal("OnKill hook did not run")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("listener survived the kill")
	}
}
