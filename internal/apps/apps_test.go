package apps

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/sim"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/transport"
)

// TestDescriptors checks, for every built-in, that the one declaration
// agrees with itself: the schema lists exactly the keys the parameter
// struct decodes, the factory survives the daemon's registration probe,
// and the documented defaults are the values the body applies.
func TestDescriptors(t *testing.T) {
	t.Parallel()
	table := map[string]struct {
		params   any
		defaults map[string]any
	}{
		"chord":      {chordParams{}, map[string]any{"bits": 24, "fault_tolerant": false, "lookups_per_min": 0, "report": false}},
		"pastry":     {pastryParams{}, map[string]any{"lookups_per_min": 0, "report": false}},
		"cyclon":     {cyclonParams{}, map[string]any{"view_size": 20, "shuffle_len": 8, "shuffle_every": 5 * time.Second, "report": false}},
		"epidemic":   {epidemicParams{}, map[string]any{"fanout": 8, "originate": false}},
		"bittorrent": {bittorrentParams{}, map[string]any{"size": 4 << 20, "piece_size": 64 << 10}},
	}
	if len(Builtins()) != len(table) {
		t.Fatalf("%d built-ins, table covers %d", len(Builtins()), len(table))
	}
	for _, a := range Builtins() {
		want, ok := table[a.Name]
		if !ok {
			t.Errorf("%s: not in the test table", a.Name)
			continue
		}
		var tags []string
		pt := reflect.TypeOf(want.params)
		for i := 0; i < pt.NumField(); i++ {
			tags = append(tags, pt.Field(i).Tag.Get("json"))
		}
		if got := a.ParamNames(); !slices.Equal(got, tags) {
			t.Errorf("%s: schema declares %v, params struct decodes %v", a.Name, got, tags)
		}
		for _, p := range a.Params {
			if !reflect.DeepEqual(p.Default, want.defaults[p.Name]) {
				t.Errorf("%s.%s: default %#v, want %#v", a.Name, p.Name, p.Default, want.defaults[p.Name])
			}
			if p.Doc == "" {
				t.Errorf("%s.%s: undocumented", a.Name, p.Name)
			}
		}
		for _, probe := range []string{"", "{}", "null"} {
			if _, err := a.Factory([]byte(probe)); err != nil {
				t.Errorf("%s: factory(%q) = %v", a.Name, probe, err)
			}
		}
		if _, err := a.Factory([]byte(`{"` + a.Params[0].Name + `":[]}`)); err == nil || !strings.HasPrefix(err.Error(), a.Name+" app: ") {
			t.Errorf("%s: mistyped parameter = %v, want a %q error", a.Name, err, a.Name+" app: ")
		}
		if got, ok := Lookup(a.Name); !ok || got.Name != a.Name {
			t.Errorf("Lookup(%q) = %v, %v", a.Name, got.Name, ok)
		}
	}
	if _, ok := Lookup("quux"); ok {
		t.Error("Lookup found an application that is not built in")
	}
}

// host is one simulated machine pair: instances run on host 0, an
// aggregator listens on host 1.
type host struct {
	k   *sim.Kernel
	nw  *simnet.Network
	agg *metrics.Aggregator
}

func newHost(t *testing.T) *host {
	t.Helper()
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 2, 1)
	agg, err := metrics.NewAggregator(nw.Node(1), 7000, k.Go)
	if err != nil {
		t.Fatal(err)
	}
	agg.Authorize("k")
	return &host{k: k, nw: nw, agg: agg}
}

// spy is the instance's node as the test watches it: how many streams the
// instance dialed to the aggregator, and how many instruments its registry
// held when it dialed the first — the moment of StartReporting.
type spy struct {
	transport.Node
	agg     transport.Addr
	ctx     *core.AppContext
	dials   int
	atStart int
}

func (s *spy) Dial(to transport.Addr, timeout time.Duration) (transport.Conn, error) {
	if to == s.agg {
		if s.dials++; s.dials == 1 {
			s.atStart = s.ctx.Metrics().Len() // allocated by now: StartReporting asked for it
		}
	}
	return s.Node.Dial(to, timeout)
}

// hasRegistry reports whether the context ever allocated its metric
// registry, without asking for it (Metrics() would allocate one).
func hasRegistry(ctx *core.AppContext) bool {
	return !reflect.ValueOf(ctx).Elem().FieldByName("reg").IsNil()
}

// start deploys one instance of a built-in under grant and runs it for
// twelve virtual seconds: two 5 s report periods.
func (h *host) start(t *testing.T, name, params string, grant core.Grant) (*core.Instance, *spy) {
	t.Helper()
	app, err := Registry(grant).New(name, []byte(params))
	if err != nil {
		t.Fatal(err)
	}
	me := transport.Addr{Host: simnet.HostName(0), Port: 9000}
	sp := &spy{Node: h.nw.Node(0), agg: h.agg.Addr()}
	inst := core.StartInstance(core.NewSimRuntime(h.k, 1), sp, core.JobInfo{Me: me, Position: 1}, nil, app)
	sp.ctx = inst.Ctx // the application's Run starts with the kernel, below
	h.k.RunFor(12 * time.Second)
	t.Cleanup(func() { inst.Kill(); h.k.RunFor(10 * time.Second) })
	return inst, sp
}

// TestReportThroughObserver pins what `report` means on every host, now
// that the host's observation plane is the instance's own context: with a
// collect target granted, report: true attaches the protocol's
// instruments before reporting starts, starts it exactly once — one
// stream, never redialed while nothing cuts it — and streams them under
// the host's key; a host that granted none fails the instance with
// ErrNoCollector; without report the context is never asked for anything
// — no registry allocated, no stream dialed.
func TestReportThroughObserver(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"chord", "pastry", "cyclon"} {
		h := newHost(t)
		collect := core.Grant{Collect: &core.Collect{Addr: h.agg.Addr(), Key: "k", Every: 5 * time.Second}}

		inst, sp := h.start(t, name, `{"report":true}`, collect)
		if done, err := inst.Done(); done || err != nil {
			t.Errorf("%s: reporting instance ended early: %v", name, err)
		}
		if sp.dials != 1 || sp.atStart == 0 {
			t.Errorf("%s: reporting started on %d streams with %d instruments attached", name, sp.dials, sp.atStart)
		}
		frames, _ := h.agg.Received()
		if h.agg.Nodes() != 1 || frames == 0 {
			t.Errorf("%s: aggregator saw %d nodes, %d frames; want the instance's stream", name, h.agg.Nodes(), frames)
		}
		own := 0
		for _, series := range h.agg.Snapshot() {
			if strings.HasPrefix(series.Name, name+".") {
				own++
			}
		}
		if own == 0 || own > sp.atStart {
			t.Errorf("%s: %d %s.* series reached the aggregator from the %d instruments attached at start",
				name, own, name, sp.atStart)
		}

		h = newHost(t)
		inst, sp = h.start(t, name, `{"report":true}`, core.Grant{})
		if done, err := inst.Done(); !done || !errors.Is(err, core.ErrNoCollector) || sp.dials != 0 {
			t.Errorf("%s: instance on a collector-less host: done=%v err=%v, %d streams dialed", name, done, err, sp.dials)
		}

		h = newHost(t)
		inst, sp = h.start(t, name, `{}`, collect)
		if done, err := inst.Done(); done || err != nil {
			t.Errorf("%s: plain instance ended early: %v", name, err)
		}
		if frames, _ := h.agg.Received(); sp.dials != 0 || hasRegistry(inst.Ctx) || frames != 0 {
			t.Errorf("%s: job without report touched the observation plane (%d streams, registry %v, %d frames)",
				name, sp.dials, hasRegistry(inst.Ctx), frames)
		}
	}
}
