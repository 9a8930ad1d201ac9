// Package apps declares the built-in SPLAY applications — chord, pastry,
// cyclon, epidemic, bittorrent — once each: the parameter schema that
// documents and hosted submissions are validated against, and the
// instance body every host runs (Scenario deployments, splayd daemons),
// built from JSON job parameters against the instance's job information
// (rendez-vous bootstrap, staggered joins by deployment position) — the
// role Lua scripts play in the original system. The catalog, the SDK's
// by-name factories and the daemon registry are all derived from this
// table.
package apps

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/protocols/bittorrent"
	"github.com/splaykit/splay/internal/protocols/chord"
	"github.com/splaykit/splay/internal/protocols/cyclon"
	"github.com/splaykit/splay/internal/protocols/epidemic"
	"github.com/splaykit/splay/internal/protocols/pastry"
	"github.com/splaykit/splay/internal/rpc"
)

// App is one built-in application.
type App struct {
	Schema
	// Factory is the application as the engine deploys it.
	Factory core.Factory
}

// define binds a parameter struct to the instance body that reads it.
// Nil and {} parameters are every default (daemons probe factories with
// nil at registration). A body asks its context for the host's
// observation plane only when the job sets report: true — instruments
// attach before the protocol starts (pure memory operations,
// schedule-neutral) and reporting starts right after it, failing the
// instance with core.ErrNoCollector on a host that collects nothing — so
// jobs that never ask for telemetry keep their exact schedule and
// footprint.
func define[P any](s Schema, body func(ctx *core.AppContext, p P) error) App {
	return App{Schema: s, Factory: func(params json.RawMessage) (core.App, error) {
		var p P
		if len(params) > 0 {
			if err := json.Unmarshal(params, &p); err != nil {
				return nil, fmt.Errorf("%s app: %w", s.Name, err)
			}
		}
		return core.AppFunc(func(ctx *core.AppContext) error { return body(ctx, p) }), nil
	}}
}

var builtins = []App{chordApp, pastryApp, cyclonApp, epidemicApp, bittorrentApp}

// Builtins lists the built-in applications in catalog order.
func Builtins() []App { return builtins }

// Lookup finds a built-in application by name.
func Lookup(name string) (App, bool) {
	for _, a := range builtins {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Registry returns an engine registry holding every built-in, each
// instance's context granted g by its host.
func Registry(g core.Grant) *core.Registry {
	reg := core.NewRegistry()
	for _, a := range builtins {
		reg.MustRegister(a.Name, a.Factory.Granted(g))
	}
	return reg
}

func reportParam(instruments string) Param {
	return Param{Name: "report", Kind: KindBool, Default: false,
		Doc: "stream " + instruments + " instruments to the collect plane"}
}

func lookupsParam(what string) Param {
	return Param{Name: "lookups_per_min", Kind: KindInt, Default: 0, Min: 0, Max: 600, Bounded: true,
		Doc: "per-node random " + what + " per minute (0 = none)"}
}

type chordParams struct {
	Bits          uint `json:"bits"`
	FaultTolerant bool `json:"fault_tolerant"`
	LookupsPerMin int  `json:"lookups_per_min"`
	Report        bool `json:"report"`
}

var chordApp = define(Schema{
	Name: "chord",
	Doc:  "Chord DHT ring: staggered joins, periodic maintenance, optional lookup workload",
	Params: []Param{
		{Name: "bits", Kind: KindInt, Doc: "ring identifier bits (m)",
			Default: int(chord.DefaultConfig().Bits), Min: 1, Max: 52, Bounded: true},
		{Name: "fault_tolerant", Kind: KindBool, Doc: "successor lists + lookup retries", Default: false},
		lookupsParam("lookups"),
		reportParam("chord.* and rpc.*"),
	},
}, func(ctx *core.AppContext, p chordParams) error {
	cfg := chord.DefaultConfig()
	if p.FaultTolerant {
		cfg = chord.FaultTolerantConfig()
	}
	if p.Bits > 0 {
		cfg.Bits = p.Bits
	}
	n, err := chord.New(ctx, cfg)
	if err != nil {
		return err
	}
	if p.Report {
		n.SetInstruments(chord.NewInstruments(ctx.Metrics()))
		n.SetRPCInstruments(rpc.NewInstruments(ctx.Metrics()))
	}
	if err := n.Start(); err != nil {
		return err
	}
	if p.Report {
		if err := ctx.StartReporting(); err != nil {
			return err
		}
	}
	// Staggered joins, one second apart, as in §5.2's descriptor.
	ctx.Sleep(time.Duration(ctx.Job.Position) * time.Second)
	if ctx.Job.Position > 1 && len(ctx.Job.Nodes) > 0 {
		if err := n.Join(ctx.Job.Nodes[0]); err != nil {
			ctx.Log.Printf("chord join failed: %v", err)
		}
	}
	n.StartMaintenance()
	if p.LookupsPerMin > 0 {
		ctx.Periodic(time.Minute/time.Duration(p.LookupsPerMin), func() {
			key := ctx.Rand().Uint64()
			if res, err := n.Lookup(key); err == nil {
				ctx.Log.Printf("lookup %d -> %s in %d hops (%s)", key, res.Node, res.Hops, res.RTT)
			}
		})
	}
	ctx.RunUntilKilled()
	n.Stop()
	return nil
})

type pastryParams struct {
	LookupsPerMin int  `json:"lookups_per_min"`
	Report        bool `json:"report"`
}

var pastryApp = define(Schema{
	Name: "pastry",
	Doc:  "Pastry prefix-routing overlay with an optional route workload",
	Params: []Param{
		lookupsParam("routes"),
		reportParam("pastry.*"),
	},
}, func(ctx *core.AppContext, p pastryParams) error {
	n := pastry.New(ctx, pastry.DefaultConfig())
	if p.Report {
		n.SetInstruments(pastry.NewInstruments(ctx.Metrics()))
	}
	if err := n.Start(); err != nil {
		return err
	}
	if p.Report {
		if err := ctx.StartReporting(); err != nil {
			return err
		}
	}
	ctx.Sleep(time.Duration(ctx.Job.Position) * time.Second)
	if ctx.Job.Position > 1 && len(ctx.Job.Nodes) > 0 {
		if err := n.Join(ctx.Job.Nodes[0]); err != nil {
			ctx.Log.Printf("pastry join failed: %v", err)
		}
	}
	n.StartMaintenance()
	if p.LookupsPerMin > 0 {
		ctx.Periodic(time.Minute/time.Duration(p.LookupsPerMin), func() {
			key := pastry.ID(ctx.Rand().Uint64())
			if res, err := n.Route(key); err == nil {
				ctx.Log.Printf("route %s -> %s in %d hops (%s)", key, res.Root, res.Hops, res.RTT)
			}
		})
	}
	ctx.RunUntilKilled()
	n.Stop()
	return nil
})

// cyclonParams: ShuffleEvery is wire-encoded as nanoseconds, like every
// duration in job parameters.
type cyclonParams struct {
	ViewSize     int   `json:"view_size"`
	ShuffleLen   int   `json:"shuffle_len"`
	ShuffleEvery int64 `json:"shuffle_every"`
	Report       bool  `json:"report"`
}

var cyclonApp = define(Schema{
	Name: "cyclon",
	Doc:  "Cyclon gossip membership: periodic view shuffles with the oldest peer",
	Params: []Param{
		{Name: "view_size", Kind: KindInt, Doc: "partial view size (c)",
			Default: cyclon.DefaultConfig().ViewSize, Min: 1, Max: 128, Bounded: true},
		{Name: "shuffle_len", Kind: KindInt, Doc: "entries exchanged per shuffle (l)",
			Default: cyclon.DefaultConfig().ShuffleLen, Min: 1, Max: 64, Bounded: true},
		{Name: "shuffle_every", Kind: KindDuration, Doc: "gossip period",
			Default: cyclon.DefaultConfig().ShuffleEvery,
			Min:     float64(100 * time.Millisecond), Max: float64(10 * time.Minute), Bounded: true},
		reportParam("cyclon.*"),
	},
}, func(ctx *core.AppContext, p cyclonParams) error {
	cfg := cyclon.DefaultConfig()
	if p.ViewSize > 0 {
		cfg.ViewSize = p.ViewSize
	}
	if p.ShuffleLen > 0 {
		cfg.ShuffleLen = p.ShuffleLen
	}
	if p.ShuffleEvery > 0 {
		cfg.ShuffleEvery = time.Duration(p.ShuffleEvery)
	}
	n := cyclon.New(ctx, cfg)
	if p.Report {
		n.SetInstruments(cyclon.NewInstruments(ctx.Metrics()))
	}
	if err := n.Start(ctx.Job.Nodes); err != nil {
		return err
	}
	if p.Report {
		if err := ctx.StartReporting(); err != nil {
			return err
		}
	}
	ctx.RunUntilKilled()
	n.Stop()
	return nil
})

type epidemicParams struct {
	Fanout    int  `json:"fanout"`
	Originate bool `json:"originate"`
}

var epidemicApp = define(Schema{
	Name: "epidemic",
	Doc:  "epidemic broadcast: position 1 may originate a rumor, everyone forwards",
	Params: []Param{
		{Name: "fanout", Kind: KindInt, Doc: "peers infected per round",
			Default: epidemic.DefaultConfig().Fanout, Min: 1, Max: 64, Bounded: true},
		{Name: "originate", Kind: KindBool, Doc: "position-1 instance broadcasts a rumor", Default: false},
	},
}, func(ctx *core.AppContext, p epidemicParams) error {
	cfg := epidemic.DefaultConfig()
	if p.Fanout > 0 {
		cfg.Fanout = p.Fanout
	}
	n := epidemic.New(ctx, cfg, ctx.Job.Nodes)
	if err := n.Start(); err != nil {
		return err
	}
	if p.Originate && ctx.Job.Position == 1 {
		ctx.After(10*time.Second, func() {
			n.Broadcast("rumor-1", []byte("hello from the rendez-vous"))
		})
	}
	ctx.RunUntilKilled()
	n.Stop()
	return nil
})

// bittorrentParams: position 1 runs the tracker, position 2 the initial
// seed, everyone else leeches.
type bittorrentParams struct {
	Size      int `json:"size"`
	PieceSize int `json:"piece_size"`
}

const (
	defaultTorrentSize = 4 << 20
	defaultPieceSize   = 64 << 10
)

var bittorrentApp = define(Schema{
	Name: "bittorrent",
	Doc:  "BitTorrent swarm: position 1 tracks, position 2 seeds, the rest leech",
	Params: []Param{
		{Name: "size", Kind: KindSize, Doc: "torrent payload size", Default: defaultTorrentSize,
			Min: 1 << 10, Max: 1 << 30, Bounded: true},
		{Name: "piece_size", Kind: KindSize, Doc: "piece size", Default: defaultPieceSize,
			Min: 1 << 10, Max: 64 << 20, Bounded: true},
	},
}, func(ctx *core.AppContext, p bittorrentParams) error {
	if p.Size <= 0 {
		p.Size = defaultTorrentSize
	}
	if p.PieceSize <= 0 {
		p.PieceSize = defaultPieceSize
	}
	torrent := bittorrent.Torrent{Name: ctx.Job.JobID, Size: p.Size, PieceSize: p.PieceSize}
	if ctx.Job.Position == 1 {
		tr := bittorrent.NewTracker(ctx)
		if err := tr.Start(); err != nil {
			return err
		}
		ctx.RunUntilKilled()
		return nil
	}
	if len(ctx.Job.Nodes) == 0 {
		return fmt.Errorf("bittorrent app: no tracker address")
	}
	peer := bittorrent.NewPeer(ctx, torrent, ctx.Job.Nodes[0], ctx.Job.Position == 2, bittorrent.DefaultConfig())
	if err := peer.Start(); err != nil {
		return err
	}
	for !ctx.Killed() {
		ctx.Sleep(5 * time.Second)
		if peer.Complete() {
			ctx.Log.Printf("download complete (%d pieces)", peer.Pieces())
			break
		}
	}
	for !ctx.Killed() { // keep seeding
		ctx.Sleep(10 * time.Second)
	}
	peer.Stop()
	return nil
})
