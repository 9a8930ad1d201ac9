package main

import (
	"sort"
	"time"
)

// metricDef is one named metric. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists the same names, units and
// directions (TestCatalogMatchesBenchmarkJSON holds them together) and
// adds the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system feels. Every workload
// reports every one of them, none is ever 0.
var endToEnd = []metricDef{
	{"sim_speed", "sim_s/s", "higher"}, // simulated seconds per wall second, median slice
	{"ops_per_s", "1/s", "higher"},     // application operations per wall second, median slice
	{"setup_s", "s", "lower"},          // Scenario.Start → first window slice, median of -setups
	{"heap_mb", "MB", "lower"},         // live heap after a forced GC at window end
	{"op_sim_ms_p50", "ms", "lower"},   // operation latency on the virtual clock
	{"op_sim_ms_p95", "ms", "lower"},   //   (lookup / job start / sampled-peer ping)
}

// perLayer are the metrics of single layers, reported by a traced run.
// A workload that never crosses a boundary reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Spans around the bench's own calls (wall).
		{"splay.start_s", "s", "lower"},
		{"splay.deploy_s", "s", "lower"},
		{"splay.converge_s", "s", "lower"},
		{"splay.window_s", "s", "lower"},
		{"splay.stop_s", "s", "lower"},
		{"splay.telemetry_read_ms", "ms", "lower"},
		{"hosting.submit_us_p50", "us", "lower"},
		{"hosting.submit_us_p95", "us", "lower"},
		{"hosting.job_poll_us", "us", "lower"},
		// Counts at the same boundaries (exact repeat for one seed).
		{"chord.lookups", "count", "higher"},
		{"chord.forwarded", "count", "lower"},
		{"chord.stabilize_runs", "count", "lower"},
		{"chord.fingers_fixed", "count", "lower"},
		{"rpc.calls", "count", "lower"},
		{"rpc.bytes", "count", "lower"},
		{"simnet.bytes", "count", "lower"},
		{"metrics.frames", "count", "lower"},
		{"metrics.bytes", "count", "lower"},
		{"controller.frames", "count", "lower"},
		{"hosting.admitted", "count", "higher"},
		{"hosting.queue_max", "count", "lower"},
		{"churn.starts", "count", "higher"},
		{"churn.kills", "count", "higher"},
		{"cyclon.shuffles", "count", "higher"},
		{"cyclon.pings", "count", "higher"},
		{"cyclon.pings_stale", "count", "lower"},
		{"faults.firings", "count", "lower"},
		{"allocs_per_op", "count", "lower"},
		{"trace_overhead_pct", "%", "lower"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu_share." + b, "%", "lower"})
	}
	for _, p := range probes {
		defs = append(defs, metricDef{p.name, p.unit, "lower"})
		if p.allocs != "" {
			defs = append(defs, metricDef{p.allocs, "count", "lower"})
		}
	}
	return append(defs,
		metricDef{"livenet.rpc_rtt_us_p50", "us", "lower"},
		metricDef{"livenet.rpc_calls_per_s", "1/s", "higher"},
	)
}

// exactRepeat are the end-to-end metrics measured on the virtual clock:
// for one seed they repeat to the last digit, on any machine.
var exactRepeat = map[string]bool{"op_sim_ms_p50": true, "op_sim_ms_p95": true}

// endToEndValues derives a run's end-to-end metrics. setups are every
// set-up time measured for this run (this process and its children).
func endToEndValues(o *outcome, setups []time.Duration) (vals map[string]float64, samples map[string]int) {
	speed, ops := medianRates(o.slices)
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	vals = map[string]float64{
		"sim_speed":     speed,
		"ops_per_s":     ops,
		"setup_s":       median(secs),
		"heap_mb":       o.heapMB,
		"op_sim_ms_p50": percentile(o.opSimMS, 50),
		"op_sim_ms_p95": percentile(o.opSimMS, 95),
	}
	samples = map[string]int{
		"sim_speed":     len(o.slices),
		"ops_per_s":     len(o.slices),
		"setup_s":       len(setups),
		"heap_mb":       1,
		"op_sim_ms_p50": len(o.opSimMS),
		"op_sim_ms_p95": len(o.opSimMS),
	}
	return vals, samples
}

// perLayerValues derives a traced run's per-layer metrics: spans from
// the tracer, counts from the outcome, CPU shares from the profile,
// unit costs from the probes, and the tracing overhead against the
// untraced twin's sim_speed.
func perLayerValues(o *outcome, tr *tracer, shares, probed map[string]float64, untracedSpeed float64) map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	vals["splay.start_s"] = tr.total("splay.start").Seconds()
	vals["splay.deploy_s"] = tr.total("splay.deploy").Seconds()
	vals["splay.converge_s"] = tr.total("splay.converge").Seconds()
	vals["splay.window_s"] = tr.total("splay.window").Seconds()
	vals["splay.stop_s"] = tr.total("splay.stop").Seconds()
	vals["splay.telemetry_read_ms"] = float64(tr.total("splay.telemetry_read")) / float64(time.Millisecond)
	if polls := tr.durations("hosting.job_poll"); len(polls) > 0 {
		vals["hosting.job_poll_us"] = float64(tr.total("hosting.job_poll")) / float64(len(polls)) / float64(time.Microsecond)
	}
	for k, v := range o.spans {
		vals[k] = v
	}
	for k, v := range o.counts {
		vals[k] = v
	}
	if ops := o.ops(); ops > 0 {
		vals["allocs_per_op"] = float64(o.mallocs) / float64(ops)
	}
	for b, v := range shares {
		vals["cpu_share."+b] = v
	}
	for k, v := range probed {
		vals[k] = v
	}
	if speed, _ := medianRates(o.slices); untracedSpeed > 0 {
		vals["trace_overhead_pct"] = (untracedSpeed - speed) / untracedSpeed * 100
	}
	return vals
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
