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
			if _, err := a.Factory(nil)([]byte(probe)); err != nil {
				t.Errorf("%s: factory(%q) = %v", a.Name, probe, err)
			}
		}
		if _, err := a.Factory(nil)([]byte(`{"` + a.Params[0].Name + `":[]}`)); err == nil || !strings.HasPrefix(err.Error(), a.Name+" app: ") {
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

// fakeObserver records what an instance asks of its host.
type fakeObserver struct {
	reg       *metrics.Registry
	atStart   int // instruments registered when reporting started
	reporting int
	err       error
}

func (o *fakeObserver) Metrics() *metrics.Registry {
	if o.reg == nil {
		o.reg = metrics.NewRegistry()
	}
	return o.reg
}

func (o *fakeObserver) StartReporting() error {
	o.reporting++
	o.atStart = o.Metrics().Len()
	return o.err
}

// start deploys one instance of a built-in from the registry on a fresh
// simulated host and runs it for ten virtual seconds.
func start(t *testing.T, reg *core.Registry, name, params string) *core.Instance {
	t.Helper()
	app, err := reg.New(name, []byte(params))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	nw := simnet.New(k, simnet.Symmetric{RTT: time.Millisecond}, 1, 1)
	me := transport.Addr{Host: simnet.HostName(0), Port: 9000}
	inst := core.StartInstance(core.NewSimRuntime(k, 1), nw.Node(0), core.JobInfo{Me: me, Position: 1}, nil, app)
	k.RunFor(10 * time.Second)
	t.Cleanup(func() { inst.Kill(); k.RunFor(10 * time.Second) })
	return inst
}

// TestReportThroughObserver pins what `report` means on every host: with
// an observer, report: true attaches the protocol's instruments before
// reporting starts, and a host without a collector fails the instance
// with the host's error; without report — or without an observer — the
// host is never asked for anything.
func TestReportThroughObserver(t *testing.T) {
	t.Parallel()
	noCollector := errors.New("no collector")
	for _, name := range []string{"chord", "pastry", "cyclon"} {
		obs := &fakeObserver{}
		reg := Registry(func(*core.AppContext) Observer { return obs })

		inst := start(t, reg, name, `{"report":true}`)
		if done, err := inst.Done(); done || err != nil {
			t.Errorf("%s: reporting instance ended early: %v", name, err)
		}
		if obs.reporting != 1 || obs.atStart == 0 {
			t.Errorf("%s: StartReporting called %d times with %d instruments attached", name, obs.reporting, obs.atStart)
		}

		*obs = fakeObserver{err: noCollector}
		inst = start(t, reg, name, `{"report":true}`)
		if done, err := inst.Done(); !done || !errors.Is(err, noCollector) {
			t.Errorf("%s: instance on a collector-less host: done=%v err=%v", name, done, err)
		}

		*obs = fakeObserver{}
		start(t, reg, name, `{}`)
		if obs.reporting != 0 || obs.reg != nil {
			t.Errorf("%s: job without report touched the observer (%d starts, registry %v)", name, obs.reporting, obs.reg)
		}

		inst = start(t, Registry(nil), name, `{"report":true}`)
		if done, err := inst.Done(); done || err != nil {
			t.Errorf("%s: observer-less host should ignore report: done=%v err=%v", name, done, err)
		}
	}
}
