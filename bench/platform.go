package main

import (
	"context"
	_ "embed"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	splay "github.com/splaykit/splay"
)

// platform_jobs sizes (scale 1).
const (
	platformFleet    = 3000                            // resident daemons
	platformCapacity = 0.8                             // share of the fleet jobs may occupy
	platformTenants  = 4                               // submissions go round-robin
	platformEvery    = 400 * time.Millisecond          // mean virtual time between submissions (open loop)
	platformJobNodes = 32                              // instances per job (fixed by the document)
	platformJobRun   = 20 * time.Second                // declared job duration (fixed by the document)
	platformDrain    = platformJobRun + 20*time.Second // window tail: the last job's run plus placement slack
)

//go:embed workloads/platform_job.yaml
var platformJobDoc string

// platformDoc renders submission n's scenario document.
func platformDoc(seed int64, n int) []byte {
	r := strings.NewReplacer("{{N}}", strconv.Itoa(n), "{{SEED}}", strconv.FormatInt(seed*100003+int64(n), 10))
	return []byte(r.Replace(platformJobDoc))
}

func tenantKey(i int) string { return "key-t" + strconv.Itoa(i) }

// platformArrivals draws the open loop's schedule: span/every
// submissions at independent uniform instants of the span — a Poisson
// process conditioned on its count, so every seed offers the same load
// and only the bursts differ. Offsets from the window start, ascending,
// to the millisecond.
func platformArrivals(seed int64, span, every time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, int(span/every))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(span/time.Millisecond))) * time.Millisecond
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// runPlatformJobs drives the controller as a resident multi-tenant
// platform: many small deploy/teardown cycles where the chord workloads
// use it for one large deployment.
func runPlatformJobs(rc *runCtx, w *workload) (*outcome, error) {
	fleet := rc.scaled(platformFleet, 4*platformJobNodes)
	nSlices := w.slices(rc.seconds)
	drainSlices := int((platformDrain + w.sliceSim - 1) / w.sliceSim)
	submitSlices := nSlices - drainSlices
	if submitSlices < 1 {
		return nil, fmt.Errorf("%s: a %d-slice window leaves no room to submit", w.name, nSlices)
	}
	// A smaller fleet is offered proportionally fewer jobs: same load.
	every := time.Duration(float64(platformEvery) * float64(platformFleet) / float64(fleet))
	arrivals := platformArrivals(rc.seed, time.Duration(submitSlices)*w.sliceSim, every)
	jobs := len(arrivals)

	sc := splay.Scenario{
		Name:            w.name,
		Seed:            rc.seed,
		Testbed:         splay.ModelNet(fleet),
		RegisterTimeout: 60 * time.Second, // PlanetLab tail headroom
		Collect:         splay.Collect{Metrics: true, ReportEvery: 5 * time.Second},
		Apps:            []splay.AppSpec{{Name: "cyclon"}},
	}
	out := &outcome{counts: map[string]float64{}, spans: map[string]float64{}}
	t0 := time.Now()
	end := rc.tr.begin("splay.start")
	sess, err := sc.Start(context.Background())
	end()
	if err != nil {
		return nil, err
	}
	defer func() {
		end := rc.tr.begin("splay.stop")
		sess.Stop()
		end()
	}()
	tenants := make([]splay.HostTenant, platformTenants)
	for i := range tenants {
		tenants[i] = splay.HostTenant{Name: "t" + strconv.Itoa(i), Key: tenantKey(i)}
	}
	end = rc.tr.begin("hosting.start")
	host, err := sess.Host(splay.HostConfig{
		Tenants:  tenants,
		Capacity: int(platformCapacity * float64(fleet)),
		Catalog:  splay.BuiltinCatalog(),
	})
	end()
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)
	if rc.setupOnly {
		return out, nil
	}

	// poll reads every tenant's job list: done jobs so far and the queue
	// depth right now.
	var views []splay.HostJob
	poll := func() (done int64, queued int, err error) {
		end := rc.tr.begin("hosting.job_poll")
		defer end()
		views = views[:0]
		for i := 0; i < platformTenants; i++ {
			vs, err := host.Jobs(tenantKey(i))
			if err != nil {
				return 0, 0, err
			}
			views = append(views, vs...)
		}
		for _, v := range views {
			switch v.State {
			case splay.HostDone:
				done++
			case splay.HostQueued:
				queued++
			}
		}
		return done, queued, nil
	}

	submitUS := make([]float64, 0, jobs)
	var rejected int64
	var doneSoFar int64
	queueMax := 0
	var pollErr error
	submitted := 0
	windowFrom := sess.Now()
	out.slices, out.mallocs, err = rc.window(nSlices, w.sliceSim, func(i int) int64 {
		sliceEnd := windowFrom.Add(time.Duration(i+1) * w.sliceSim)
		for submitted < jobs && windowFrom.Add(arrivals[submitted]).Before(sliceEnd) {
			sess.RunFor(windowFrom.Add(arrivals[submitted]).Sub(sess.Now()))
			doc := platformDoc(rc.seed, submitted)
			key := tenantKey(submitted % platformTenants)
			submitted++
			end := rc.tr.begin("hosting.submit")
			t := time.Now()
			_, err := host.SubmitRaw(key, doc)
			submitUS = append(submitUS, float64(time.Since(t))/float64(time.Microsecond))
			end()
			if err != nil {
				rejected++
			}
		}
		sess.RunFor(sliceEnd.Sub(sess.Now()))
		done, queued, err := poll()
		if err != nil {
			pollErr = err
		}
		if queued > queueMax {
			queueMax = queued
		}
		ops := done - doneSoFar
		doneSoFar = done
		return ops
	})
	if err != nil {
		return nil, err
	}
	if pollErr != nil {
		return nil, pollErr
	}
	out.heapMB = heapMB()

	// Every job's virtual start latency and final state.
	var startLat []time.Duration
	var latSum time.Duration
	var frames int64
	notDone := 0
	for _, v := range views {
		if v.State != splay.HostDone {
			notDone++
			continue
		}
		d := v.StartedAt.Sub(v.SubmittedAt)
		startLat = append(startLat, d)
		latSum += d
	}
	for i := 0; i < platformTenants; i++ {
		u, err := host.Usage(tenantKey(i), "t"+strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		frames += u.TotalFrames
	}
	out.attempted = int64(jobs)
	out.failed = rejected + int64(notDone)
	out.opSimMS = durationsMS(startLat)
	if rejected != 0 {
		out.failf("%d of %d submissions were rejected", rejected, jobs)
	}
	if notDone != 0 || len(views) != jobs {
		out.failf("%d of %d jobs done (%d listed)", len(views)-notDone, jobs, len(views))
	}

	end = rc.tr.begin("splay.telemetry_read")
	tel := sess.Telemetry()
	mFrames, mBytes := tel.Received()
	shuffles := tel.Counter("cyclon.shuffles")
	end()
	sort.Float64s(submitUS)
	out.spans["hosting.submit_us_p50"] = percentile(submitUS, 50)
	out.spans["hosting.submit_us_p95"] = percentile(submitUS, 95)
	out.counts["hosting.admitted"] = float64(int64(jobs) - rejected)
	out.counts["hosting.queue_max"] = float64(queueMax)
	out.counts["controller.frames"] = float64(frames)
	out.counts["metrics.frames"] = float64(mFrames)
	out.counts["metrics.bytes"] = float64(mBytes)
	out.counts["simnet.bytes"] = float64(sess.NetBytes())
	out.counts["cyclon.shuffles"] = float64(shuffles)
	if shuffles == 0 {
		out.failf("hosted jobs reported no cyclon.shuffles")
	}
	out.digest = digest(w.name, jobs, rejected, notDone, int64(latSum), shuffles, frames, queueMax)
	return out, nil
}
