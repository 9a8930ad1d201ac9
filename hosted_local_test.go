package splay_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	splay "github.com/splaykit/splay"
	"github.com/splaykit/splay/internal/protocols/bittorrent"
)

// swarmParams travels in a submission's app params, so a hosted swarm and
// the local replay of the same bytes build the same torrent and report
// under the same telemetry series.
type swarmParams struct {
	Series    string `json:"series"`
	Size      int    `json:"size"`
	PieceSize int    `json:"piece_size"`
}

// swarmApp is the BitTorrent swarm of the built-in app — position 1
// tracks, position 2 seeds, the rest leech — with a telemetry series: how
// many leechers completed, the pieces they hold, and the virtual
// milliseconds each took from its start to the full torrent.
func swarmApp(params []byte) (splay.App, error) {
	var p swarmParams
	if len(params) > 0 { // daemons probe factories with nil params
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
	}
	return splay.AppFunc(func(env *splay.Env) error {
		ctx := env.AppContext()
		if ctx.Job.Position == 1 {
			return bittorrent.NewTracker(ctx).Start()
		}
		torrent := bittorrent.Torrent{Name: p.Series, Size: p.Size, PieceSize: p.PieceSize}
		peer := bittorrent.NewPeer(ctx, torrent, ctx.Job.Nodes[0], ctx.Job.Position == 2)
		if err := peer.Start(); err != nil {
			return err
		}
		reg := env.Metrics()
		complete, pieces, took := reg.Counter(p.Series+".complete"), reg.Counter(p.Series+".pieces"), reg.Counter(p.Series+".took_ms")
		if err := env.StartReporting(); err != nil {
			return err
		}
		t0 := env.Now()
		var stop func()
		stop = env.Periodic(100*time.Millisecond, func() {
			if peer.Complete() {
				complete.Inc()
				pieces.Add(uint64(peer.Pieces()))
				took.Add(uint64(env.Now().Sub(t0).Milliseconds()))
				stop()
			}
		})
		return nil
	}), nil
}

// TestHostedBitTorrentMatchesLocal is invariant 10 for BitTorrent: a swarm
// submitted to a simulated resident platform and a local run of the exact
// submitted bytes deploy as many instances and report the same swarm
// telemetry, though the platform places the job on other daemons of a
// larger fleet.
func TestHostedBitTorrentMatchesLocal(t *testing.T) {
	t.Parallel()
	const nodes, rtt, every = 10, 10 * time.Millisecond, time.Second
	sess, err := splay.Scenario{
		Name:    "resident",
		Seed:    3,
		Testbed: splay.Uniform(24, rtt, 0),
		Collect: splay.Collect{Metrics: true, ReportEvery: every},
		Apps:    []splay.AppSpec{{Name: "swarm", New: swarmApp}},
	}.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Stop()
	host, err := sess.Host(splay.HostConfig{Tenants: []splay.HostTenant{{Name: "t", Key: "kt"}}})
	if err != nil {
		t.Fatal(err)
	}
	params, err := json.Marshal(swarmParams{Series: "bt", Size: 2 << 20, PieceSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := splay.Scenario{
		Name:     "swarm",
		Seed:     11,
		Testbed:  splay.Uniform(nodes+2, rtt, 0),
		Collect:  splay.Collect{Metrics: true, ReportEvery: every},
		Apps:     []splay.AppSpec{{Name: "swarm", Nodes: nodes, Params: params}},
		Duration: 90 * time.Second,
	}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	job, err := host.SubmitRaw("kt", sub)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		v, err := host.Job("kt", job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			break
		}
		if i == 300 {
			t.Fatalf("the hosted swarm is still %s after %d simulated seconds", v.State, i)
		}
		sess.RunFor(time.Second)
	}
	sess.RunFor(2*every + time.Second) // the last deltas reach the aggregator
	hres, err := host.Result("kt", job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hres.State != splay.HostDone || len(hres.Apps) != 1 {
		t.Fatalf("hosted swarm finished %s (%s), apps %+v", hres.State, hres.Error, hres.Apps)
	}
	swarm := func(tel *splay.Telemetry) string {
		return fmt.Sprintf("complete=%d pieces=%d took_ms=%d",
			tel.Counter("bt.complete"), tel.Counter("bt.pieces"), tel.Counter("bt.took_ms"))
	}
	hosted := fmt.Sprintf("deployed=%d %s", hres.Apps[0].Deployed, swarm(sess.Telemetry()))

	back, err := splay.UnmarshalScenario(sub)
	if err != nil {
		t.Fatal(err)
	}
	back.Apps[0].New = swarmApp // the factory is the platform's, never the bytes'
	lres, err := back.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	local := fmt.Sprintf("deployed=%d %s", len(lres.Jobs[0].Deployed), swarm(lres.Metrics))
	if hosted != local {
		t.Errorf("hosted and local runs of the same bytes differ:\nhosted %s\nlocal  %s", hosted, local)
	}
	// The tracker aside, every peer ends with the whole torrent.
	if want := fmt.Sprintf("deployed=%d complete=%d pieces=%d ", nodes, nodes-1, (nodes-1)*32); !strings.HasPrefix(hosted, want) {
		t.Errorf("hosted swarm: %s, want it to start %q", hosted, want)
	}
}
