package splay

import (
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/stats"
)

// Deployment/result vocabulary re-exported from the engine.
type (
	// JobStatus reports a deployed job's progress (id, state, deployed
	// instance addresses, start time).
	JobStatus = controller.JobStatus
	// JobState is the §3.1 job state machine.
	JobState = controller.JobState
	// Series is a sorted sample view: Percentile/Quantile/CDF over it
	// cost one binary search each (one sort total, amortized).
	Series = stats.Sorted
	// Durations is an unsorted sample collection; Sorted() yields a
	// Series.
	Durations = stats.Durations
	// SeriesSnapshot is one aggregated series in a Telemetry snapshot.
	SeriesSnapshot = metrics.SeriesSnapshot
)

// Job states.
const (
	JobIdle     = controller.JobIdle
	JobSelected = controller.JobSelected
	JobRunning  = controller.JobRunning
	JobDone     = controller.JobDone
	JobFailed   = controller.JobFailed
)

// Result is what a one-shot Scenario.Run returns: the deployed jobs and,
// when the scenario collected metrics, the aggregated population view.
type Result struct {
	// Jobs holds one status per deployed application, in Apps order.
	Jobs []*JobStatus
	// Metrics is the aggregated live view (nil unless Collect.Metrics).
	Metrics *Telemetry
}

// Telemetry is the merged, population-wide metric view the scenario's
// aggregator accumulated from every reporting instance (plus the
// controller's own stream). All accessors are safe during and after the
// run — this is the §3.4 "observe a live system" surface.
type Telemetry struct {
	agg *metrics.Aggregator
}

// Nodes is the number of distinct streams that have reported.
func (t *Telemetry) Nodes() int { return t.agg.Nodes() }

// Received reports the total report frames and wire bytes absorbed: the
// monitoring bill's numerator.
func (t *Telemetry) Received() (frames, bytes uint64) { return t.agg.Received() }

// Counter sums the named counter across every reporting node.
func (t *Telemetry) Counter(name string) uint64 { return t.agg.CounterTotal(name) }

// GaugeSum sums the named gauge's last value across nodes.
func (t *Telemetry) GaugeSum(name string) int64 { return t.agg.GaugeSum(name) }

// HistStats returns the named histogram's population count and sum.
func (t *Telemetry) HistStats(name string) (count uint64, sum int64) {
	return t.agg.HistStats(name)
}

// Series expands the named histogram's merged buckets into a sorted
// sample view for percentile queries.
func (t *Telemetry) Series(name string) Series { return t.agg.HistSorted(name) }

// Snapshot renders every aggregated series, for serving or printing.
func (t *Telemetry) Snapshot() []SeriesSnapshot { return t.agg.Snapshot() }
