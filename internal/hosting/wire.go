package hosting

import (
	"errors"
	"fmt"
	"time"

	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/wire"
)

// Submissions arrive as serialized Scenarios (the splay package's
// Marshal format, internal/wire). The hosting plane places a subset —
// application references, instance counts, run length. Members that only
// describe a local replay (testbed, collect, settle, workers, ports) are
// accepted and ignored: they belong to the resident platform, and because
// they still travel, the same bytes run unchanged through a local
// splay.UnmarshalScenario — the hosted-vs-local byte-identity invariant
// needs exactly that. Members that change what the job does or whether it
// passed — faults, assert, churn, a per-app env — are refused: a fault
// drill reported "done" with nothing injected is worse than a rejection.

// submission is a validated job request.
type submission struct {
	name     string
	seed     int64
	specs    []controller.JobSpec
	nodes    int
	duration time.Duration
}

// newSubmission validates a decoded scenario and extracts what hosting
// places. A refusal names the offending member in field when one is.
func newSubmission(w *wire.Scenario) (sub submission, field string, err error) {
	if len(w.Apps) == 0 {
		return submission{}, "", errors.New("scenario deploys no applications")
	}
	unhosted := func(member string) (submission, string, error) {
		return submission{}, member, fmt.Errorf("hosted jobs do not honour %s: run the scenario locally", member)
	}
	switch {
	case w.Faults != nil:
		return unhosted("faults")
	case len(w.Assert) > 0:
		return unhosted("assert")
	case len(w.Churn) > 0:
		return unhosted("churn")
	}
	sub = submission{
		name:     w.Name,
		seed:     w.Seed,
		duration: w.SettleNS + w.DurationNS,
	}
	for i, a := range w.Apps {
		if a.App == "" {
			return submission{}, "", fmt.Errorf("app entry %d has no name", i)
		}
		if a.Env != nil {
			return unhosted(fmt.Sprintf("apps[%d].env", i))
		}
		nodes := a.Nodes
		if nodes <= 0 {
			nodes = 1
		}
		sub.specs = append(sub.specs, controller.JobSpec{
			App:      a.App,
			Params:   a.Params,
			Nodes:    nodes,
			Superset: a.Superset,
			FullList: a.FullList,
		})
		sub.nodes += nodes
	}
	if sub.duration < 0 {
		return submission{}, "", errors.New("scenario declares a negative duration")
	}
	return sub, "", nil
}

// JobView is a job's externally visible state.
type JobView struct {
	ID          string    `json:"id"`
	Seq         int64     `json:"seq"`
	Tenant      string    `json:"tenant"`
	Name        string    `json:"name,omitempty"`
	State       JobState  `json:"state"`
	Nodes       int       `json:"nodes"`
	Apps        []string  `json:"apps"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	Error       string    `json:"error,omitempty"`
}

// ResultAppView is one placed application inside a result.
type ResultAppView struct {
	App      string `json:"app"`
	Nodes    int    `json:"nodes"`
	Deployed int    `json:"deployed"`
}

// ResultView is a finished job's outcome: the structural facts a
// tenant compares against a local run of the same serialized scenario.
type ResultView struct {
	ID          string          `json:"id"`
	Tenant      string          `json:"tenant"`
	Name        string          `json:"name,omitempty"`
	Seed        int64           `json:"seed"`
	State       JobState        `json:"state"`
	Apps        []ResultAppView `json:"apps"`
	Frames      int64           `json:"frames"`
	QueueWaitNS time.Duration   `json:"queue_wait_ns"`
	Error       string          `json:"error,omitempty"`
}

// UsageView is a tenant's accounting snapshot.
type UsageView struct {
	Tenant       string `json:"tenant"`
	Quota        Quota  `json:"quota"`
	RunningJobs  int    `json:"running_jobs"`
	RunningNodes int    `json:"running_nodes"`
	QueuedJobs   int    `json:"queued_jobs"`
	TotalJobs    int    `json:"total_jobs"`
	TotalFrames  int64  `json:"total_frames"`
}

// viewLocked snapshots a job. Callers hold s.mu.
func (s *Service) viewLocked(j *job) JobView {
	apps := make([]string, len(j.specs))
	for i, sp := range j.specs {
		apps[i] = sp.App
	}
	return JobView{
		ID:          j.id,
		Seq:         j.seq,
		Tenant:      j.ten.Name,
		Name:        j.name,
		State:       j.state,
		Nodes:       j.nodes,
		Apps:        apps,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		Error:       j.errMsg,
	}
}

// resultLocked snapshots a terminal job's result. Callers hold s.mu.
func (s *Service) resultLocked(j *job) ResultView {
	rv := ResultView{
		ID:     j.id,
		Tenant: j.ten.Name,
		Name:   j.name,
		Seed:   j.seed,
		State:  j.state,
		Frames: j.frames,
		Error:  j.errMsg,
	}
	if !j.startedAt.IsZero() {
		rv.QueueWaitNS = j.startedAt.Sub(j.submittedAt)
	}
	for i, sp := range j.specs {
		av := ResultAppView{App: sp.App, Nodes: sp.Nodes}
		if i < len(j.deployed) {
			av.Deployed = j.deployed[i]
		}
		rv.Apps = append(rv.Apps, av)
	}
	return rv
}
