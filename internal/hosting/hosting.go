// Package hosting turns the controller into a resident multi-tenant
// platform: the §4 splayweb vision. One long-lived daemon fleet serves
// many users; tenants authenticate with per-tenant keys (the metric
// aggregator's key-auth pattern), submit serialized Scenarios, and the
// service queues, fair-share places, watches and kills their jobs on
// the shared population. Placement rides the controller's existing
// deployment machinery, so hosted jobs inherit superset probing,
// re-placement on deploy failure and the sandbox caps carried by each
// app spec.
//
// The service is built over core.Runtime and the controller, so the
// same state machine runs in virtual time on a simulated fleet (the
// hostplane experiment drives ≥3 tenants over 5,000 simulated daemons)
// and in real time behind splayd -host.
//
// Fairness is deterministic and starvation-free: tenants' queues are
// FIFO, the next job dispatched is the head-of-line job of the tenant
// with the fewest placed nodes (ties to submission order), and when
// that candidate does not fit the remaining capacity dispatch stops
// entirely — a large job waits at the head of the line instead of
// being overtaken forever by small ones.
package hosting

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/config"
	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/metrics"
	"github.com/splaykit/splay/internal/wire"
)

// Quota bounds one tenant's share of the platform. Zero fields are
// unlimited.
type Quota struct {
	MaxNodes  int `json:"max_nodes,omitempty"`  // placed instances at once
	MaxJobs   int `json:"max_jobs,omitempty"`   // placed jobs at once
	MaxQueued int `json:"max_queued,omitempty"` // jobs waiting in the queue
}

// Tenant is one account: a name, its secret key, and its quota.
type Tenant struct {
	Name  string
	Key   string
	Quota Quota
}

// Config parameterizes the service.
type Config struct {
	// Capacity is the instance budget jobs are packed into. 0 sizes it
	// to the fleet's live daemon count at each dispatch.
	Capacity int
	// MaxDuration clamps declared job durations. 0 leaves them alone.
	MaxDuration time.Duration
	// Metrics receives per-tenant instruments (host.deploys.<tenant>,
	// host.frames.<tenant>, …). Nil disables instrumentation.
	Metrics *metrics.Registry
	// Catalog validates submissions' application references and typed
	// parameters at admission: bad apps and out-of-range params are
	// rejected as bad_scenario with the offending field, before the job
	// ever queues. It also enables config-document submissions (the
	// YAML-flavored scenario language), compiled at the door to the same
	// canonical wire form JSON submissions arrive in. Nil skips
	// validation and declines documents.
	Catalog *config.Catalog
	// OperatorKey authenticates the operator routes (GET /metrics,
	// GET /daemons, POST /faults/inject, POST /faults/heal). Empty
	// refuses them all: fault injection is never reachable
	// unauthenticated on a multi-tenant port.
	OperatorKey string
	// Aggregator is the collection plane GET /metrics renders. Nil
	// serves an empty view.
	Aggregator *metrics.Aggregator
}

const (
	// defaultDuration runs jobs that declare no duration.
	defaultDuration = 30 * time.Second
	// deployAttempts is how many times a job is placed before a
	// *controller.DeployError fails it: once, and once more re-queued.
	deployAttempts = 2
	// retryDelay spaces re-placement attempts after a deploy failure,
	// giving a churning population time to re-register.
	retryDelay = time.Second
)

// ErrorCode classifies a JobError.
type ErrorCode string

// Job error codes.
const (
	ErrAuth        ErrorCode = "auth"         // unknown or wrong key
	ErrQuota       ErrorCode = "quota"        // tenant quota exceeded
	ErrCapacity    ErrorCode = "capacity"     // job can never fit the platform
	ErrBadScenario ErrorCode = "bad_scenario" // submission did not parse or validate
	ErrUnknownJob  ErrorCode = "unknown_job"  // no such job for this tenant
	ErrPending     ErrorCode = "pending"      // result requested before the job finished
	ErrClosed      ErrorCode = "closed"       // service shut down
	ErrBadRequest  ErrorCode = "bad_request"  // operator request did not parse or selects nothing
)

// JobError is the typed error every hosting operation returns. Field
// names the offending scenario field on bad_scenario rejections (e.g.
// "apps[0].params.bits") so tenants can fix documents without reading
// server logs.
type JobError struct {
	Code   ErrorCode `json:"code"`
	Job    string    `json:"job,omitempty"`
	Tenant string    `json:"tenant,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Field  string    `json:"field,omitempty"`
	Err    error     `json:"-"`
}

func (e *JobError) Error() string {
	msg := "hosting: " + string(e.Code)
	if e.Job != "" {
		msg += " " + e.Job
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *JobError) Unwrap() error { return e.Err }

// JobState is a hosted job's lifecycle position.
type JobState string

// Job states: Queued → Deploying → Running → one of the terminals.
const (
	Queued    JobState = "queued"
	Deploying JobState = "deploying"
	Running   JobState = "running"
	Done      JobState = "done"
	Failed    JobState = "failed"
	Killed    JobState = "killed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == Done || s == Failed || s == Killed }

// tenant is the service's account state.
type tenant struct {
	Tenant
	runningNodes int // placed instances (deploying + running)
	runningJobs  int
	queuedJobs   int
	totalJobs    int
	totalFrames  int64

	deploys, deployFails, frames *metrics.Counter
	nodesG, queuedG              *metrics.Gauge
}

// job is one submission moving through the state machine.
type job struct {
	id       string
	seq      int64
	ten      *tenant
	name     string // scenario name
	seed     int64
	specs    []controller.JobSpec
	duration time.Duration
	nodes    int // total instances across specs

	state       JobState
	attempts    int
	killed      bool
	acquired    bool // holds tenant/platform node accounting
	ctlJobs     []string
	deployed    []int // instances placed, per spec
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	frames0     int64
	frames      int64
	errMsg      string
}

// Service is the resident hosting plane.
type Service struct {
	rt    core.Runtime
	fleet *controller.Controller // the shared daemon population jobs are placed onto
	cfg   Config

	mu        sync.Mutex
	tenants   map[string]*tenant // by name
	byKey     map[string]*tenant
	jobs      map[string]*job
	queue     []*job // waiting, ascending seq
	seq       int64
	usedNodes int
	closed    bool

	rejects *metrics.Counter
}

// New builds a service over a runtime and the fleet's controller. Add
// tenants with AddTenant before serving submissions.
func New(rt core.Runtime, fleet *controller.Controller, cfg Config) *Service {
	return &Service{
		rt:      rt,
		fleet:   fleet,
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		byKey:   make(map[string]*tenant),
		jobs:    make(map[string]*job),
		rejects: cfg.Metrics.Counter("host.rejects"),
	}
}

// AddTenant registers an account. Names and keys must be unique and
// non-empty.
func (s *Service) AddTenant(t Tenant) error {
	if t.Name == "" || t.Key == "" {
		return errors.New("hosting: tenant needs a name and a key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[t.Name]; dup {
		return fmt.Errorf("hosting: duplicate tenant %q", t.Name)
	}
	if _, dup := s.byKey[t.Key]; dup {
		return fmt.Errorf("hosting: tenant %q reuses another tenant's key", t.Name)
	}
	ten := &tenant{
		Tenant:      t,
		deploys:     s.cfg.Metrics.Counter("host.deploys." + t.Name),
		deployFails: s.cfg.Metrics.Counter("host.deploy_fails." + t.Name),
		frames:      s.cfg.Metrics.Counter("host.frames." + t.Name),
		nodesG:      s.cfg.Metrics.Gauge("host.nodes." + t.Name),
		queuedG:     s.cfg.Metrics.Gauge("host.queued." + t.Name),
	}
	s.tenants[t.Name] = ten
	s.byKey[t.Key] = ten
	return nil
}

// authorize resolves a key to its tenant. Callers hold no lock.
func (s *Service) authorize(key string) (*tenant, *JobError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ten, ok := s.byKey[key]
	if !ok {
		s.rejects.Inc()
		return nil, &JobError{Code: ErrAuth, Detail: "unknown key"}
	}
	return ten, nil
}

// capacity is the instance budget. Callers hold s.mu.
func (s *Service) capacity() int {
	if s.cfg.Capacity > 0 {
		return s.cfg.Capacity
	}
	return s.fleet.Daemons()
}

// Submit parses a serialized scenario, admits it against the tenant's
// quota and enqueues it. Submissions arrive as wire JSON or — when the
// service has a catalog — as config documents, compiled at admission to
// the identical wire form; either way the catalog validates every
// application reference and typed parameter before the job queues.
// Returns the queued job's view; placement happens asynchronously on
// the runtime.
func (s *Service) Submit(key string, scenario []byte) (JobView, error) {
	ten, jerr := s.authorize(key)
	if jerr != nil {
		return JobView{}, jerr
	}
	reject := func(field string, err error) (JobView, error) {
		s.rejects.Inc()
		return JobView{}, &JobError{Code: ErrBadScenario, Tenant: ten.Name, Field: field, Err: err}
	}
	isDoc := config.IsDocument(scenario)
	if isDoc {
		if s.cfg.Catalog == nil {
			s.rejects.Inc()
			return JobView{}, &JobError{Code: ErrBadScenario, Tenant: ten.Name,
				Detail: "this platform accepts wire JSON only (no catalog configured for config documents)"}
		}
		compiled, perr := config.Compile(scenario, config.Options{Catalog: s.cfg.Catalog})
		if perr != nil {
			return reject(perr.Path, perr)
		}
		scenario = compiled
	}
	// The one decode of the submission: admission and placement both read w.
	w, err := wire.Decode(scenario)
	if err != nil {
		var derr *wire.DecodeError
		if errors.As(err, &derr) {
			return reject(derr.Field, err)
		}
		return reject("", err)
	}
	if s.cfg.Catalog != nil && !isDoc { // the compiler validated documents
		if perr := config.ValidateWire(w, s.cfg.Catalog); perr != nil {
			return reject(perr.Path, perr)
		}
	}
	req, field, err := newSubmission(w)
	if err != nil {
		return reject(field, err)
	}
	dur := req.duration
	if dur == 0 {
		dur = defaultDuration
	}
	if s.cfg.MaxDuration > 0 && dur > s.cfg.MaxDuration {
		dur = s.cfg.MaxDuration
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobView{}, &JobError{Code: ErrClosed, Tenant: ten.Name}
	}
	if cap := s.capacity(); req.nodes > cap {
		s.mu.Unlock()
		s.rejects.Inc()
		return JobView{}, &JobError{Code: ErrCapacity, Tenant: ten.Name,
			Detail: fmt.Sprintf("%d instances exceed the platform's %d", req.nodes, cap)}
	}
	if q := ten.Quota; (q.MaxNodes > 0 && req.nodes > q.MaxNodes) ||
		(q.MaxQueued > 0 && ten.queuedJobs >= q.MaxQueued) {
		s.mu.Unlock()
		s.rejects.Inc()
		return JobView{}, &JobError{Code: ErrQuota, Tenant: ten.Name,
			Detail: fmt.Sprintf("%d instances against quota %+v with %d queued", req.nodes, q, ten.queuedJobs)}
	}
	s.seq++
	j := &job{
		id:          fmt.Sprintf("j%d", s.seq),
		seq:         s.seq,
		ten:         ten,
		name:        req.name,
		seed:        req.seed,
		specs:       req.specs,
		duration:    dur,
		nodes:       req.nodes,
		state:       Queued,
		submittedAt: s.rt.Now(),
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	ten.queuedJobs++
	ten.totalJobs++
	ten.queuedG.Add(1)
	view := s.viewLocked(j)
	s.mu.Unlock()

	s.dispatch()
	return view, nil
}

// dispatch places every admissible queued job. Deterministic fair
// share: among tenants' head-of-line jobs (each tenant throttled by its
// own quota), the tenant with the fewest placed nodes goes first, ties
// broken by submission order; if the chosen job does not fit the free
// capacity, dispatch stops — nothing overtakes the head of the line.
func (s *Service) dispatch() {
	var starting []*job
	s.mu.Lock()
	for !s.closed {
		var pick *job
		seen := make(map[*tenant]bool, len(s.tenants))
		for _, j := range s.queue {
			if seen[j.ten] {
				continue
			}
			seen[j.ten] = true // head of this tenant's line
			if q := j.ten.Quota; q.MaxJobs > 0 && j.ten.runningJobs >= q.MaxJobs {
				continue
			}
			if q := j.ten.Quota; q.MaxNodes > 0 && j.ten.runningNodes+j.nodes > q.MaxNodes {
				continue
			}
			if pick == nil || j.ten.runningNodes < pick.ten.runningNodes ||
				(j.ten.runningNodes == pick.ten.runningNodes && j.seq < pick.seq) {
				pick = j
			}
		}
		if pick == nil || s.usedNodes+pick.nodes > s.capacity() {
			break
		}
		s.removeQueued(pick)
		pick.state = Deploying
		pick.acquired = true
		pick.ten.queuedJobs--
		pick.ten.queuedG.Add(-1)
		pick.ten.runningJobs++
		pick.ten.runningNodes += pick.nodes
		pick.ten.nodesG.Add(int64(pick.nodes))
		s.usedNodes += pick.nodes
		starting = append(starting, pick)
	}
	s.mu.Unlock()
	for _, j := range starting {
		s.rt.Go(func() { s.runJob(j) })
	}
}

// removeQueued drops a job from the wait queue. Callers hold s.mu.
func (s *Service) removeQueued(j *job) {
	if i := slices.Index(s.queue, j); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1) // clears the vacated slot
	}
}

// runJob drives one dispatched job: place every app spec on the fleet,
// run for the declared duration, release. Runs as a runtime task.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	j.frames0 = s.fleet.FramesSent()
	specs := j.specs
	s.mu.Unlock()

	var placed []string
	var counts []int
	fail := func(err error) {
		for _, id := range placed {
			s.fleet.StopJob(id) //nolint:errcheck
		}
		s.mu.Lock()
		if j.killed {
			s.mu.Unlock()
			s.finish(j, Killed, "")
			return
		}
		j.attempts++
		var derr *controller.DeployError
		if errors.As(err, &derr) && j.attempts < deployAttempts {
			// The population churned underneath us: hand the nodes
			// back and requeue at our original position.
			j.state = Queued
			j.acquired = false
			j.ctlJobs, j.deployed = nil, nil
			j.ten.runningJobs--
			j.ten.runningNodes -= j.nodes
			j.ten.nodesG.Add(-int64(j.nodes))
			j.ten.queuedJobs++
			j.ten.queuedG.Add(1)
			s.usedNodes -= j.nodes
			s.queue = append(s.queue, j)
			sort.Slice(s.queue, func(a, b int) bool { return s.queue[a].seq < s.queue[b].seq })
			s.mu.Unlock()
			s.rt.After(retryDelay, func() { s.rt.Go(s.dispatch) })
			return
		}
		j.ten.deployFails.Inc()
		s.mu.Unlock()
		s.finish(j, Failed, err.Error())
	}

	for _, spec := range specs {
		st, err := s.fleet.Submit(spec)
		if err != nil {
			fail(err)
			return
		}
		placed = append(placed, st.ID)
		counts = append(counts, len(st.Deployed))
		s.mu.Lock()
		killed := j.killed
		s.mu.Unlock()
		if killed {
			for _, id := range placed {
				s.fleet.StopJob(id) //nolint:errcheck
			}
			s.finish(j, Killed, "")
			return
		}
	}

	s.mu.Lock()
	j.state = Running
	j.ctlJobs = placed
	j.deployed = counts
	j.startedAt = s.rt.Now()
	// Frame attribution is a delta over the placement window; overlapping
	// placements by other tenants share the fleet counter, so this is an
	// upper bound, not an exact split.
	j.frames = s.fleet.FramesSent() - j.frames0
	j.ten.totalFrames += j.frames
	j.ten.deploys.Inc()
	j.ten.frames.Add(uint64(j.frames))
	killed := j.killed
	dur := j.duration
	s.mu.Unlock()
	if killed {
		s.finish(j, Killed, "")
		return
	}

	s.rt.Sleep(dur)
	s.finish(j, Done, "")
}

// finish moves a job to a terminal state exactly once, stops its
// controller jobs and hands its nodes back to the dispatcher.
func (s *Service) finish(j *job, state JobState, errMsg string) {
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.finishedAt = s.rt.Now()
	ctl := j.ctlJobs
	if j.acquired {
		j.acquired = false
		j.ten.runningJobs--
		j.ten.runningNodes -= j.nodes
		j.ten.nodesG.Add(-int64(j.nodes))
		s.usedNodes -= j.nodes
	}
	s.mu.Unlock()
	for _, id := range ctl {
		s.fleet.StopJob(id) //nolint:errcheck
	}
	s.dispatch()
}

// lookup resolves a job for a tenant. Jobs are invisible across
// tenants: a foreign id reads as unknown. Callers hold no lock.
func (s *Service) lookup(ten *tenant, id string) (*job, *JobError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.ten != ten {
		return nil, &JobError{Code: ErrUnknownJob, Job: id, Tenant: ten.Name}
	}
	return j, nil
}

// Job returns one job's view.
func (s *Service) Job(key, id string) (JobView, error) {
	ten, jerr := s.authorize(key)
	if jerr != nil {
		return JobView{}, jerr
	}
	j, jerr := s.lookup(ten, id)
	if jerr != nil {
		return JobView{}, jerr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked(j), nil
}

// Jobs lists the tenant's jobs in submission order.
func (s *Service) Jobs(key string) ([]JobView, error) {
	ten, jerr := s.authorize(key)
	if jerr != nil {
		return nil, jerr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobView
	for _, j := range s.jobs {
		if j.ten == ten {
			out = append(out, s.viewLocked(j))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, nil
}

// Result returns a finished job's result view; a job still moving
// reports ErrPending.
func (s *Service) Result(key, id string) (ResultView, error) {
	ten, jerr := s.authorize(key)
	if jerr != nil {
		return ResultView{}, jerr
	}
	j, jerr := s.lookup(ten, id)
	if jerr != nil {
		return ResultView{}, jerr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.state.Terminal() {
		return ResultView{}, &JobError{Code: ErrPending, Job: id, Tenant: ten.Name,
			Detail: string(j.state)}
	}
	return s.resultLocked(j), nil
}

// Kill removes a queued job or stops a placed one. Killing a job in a
// terminal state is a no-op.
func (s *Service) Kill(key, id string) error {
	ten, jerr := s.authorize(key)
	if jerr != nil {
		return jerr
	}
	j, jerr := s.lookup(ten, id)
	if jerr != nil {
		return jerr
	}
	s.mu.Lock()
	switch {
	case j.state.Terminal():
		s.mu.Unlock()
		return nil
	case j.state == Queued:
		s.removeQueued(j)
		j.state = Killed
		j.finishedAt = s.rt.Now()
		j.ten.queuedJobs--
		j.ten.queuedG.Add(-1)
		s.mu.Unlock()
		s.dispatch()
		return nil
	default: // deploying or running
		j.killed = true
		running := j.state == Running
		s.mu.Unlock()
		if running {
			s.finish(j, Killed, "")
		}
		// A deploying job is finished by its own runJob task when the
		// in-flight placement returns.
		return nil
	}
}

// Usage reports a tenant's accounting. The key must belong to the named
// tenant — usage is not visible across accounts.
func (s *Service) Usage(key, name string) (UsageView, error) {
	ten, jerr := s.authorize(key)
	if jerr != nil {
		return UsageView{}, jerr
	}
	if ten.Name != name {
		return UsageView{}, &JobError{Code: ErrAuth, Tenant: name, Detail: "key does not own tenant"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return UsageView{
		Tenant:       ten.Name,
		Quota:        ten.Quota,
		RunningJobs:  ten.runningJobs,
		RunningNodes: ten.runningNodes,
		QueuedJobs:   ten.queuedJobs,
		TotalJobs:    ten.totalJobs,
		TotalFrames:  ten.totalFrames,
	}, nil
}

// Close stops admissions and kills every live job.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	var live []*job
	for _, j := range s.jobs {
		if !j.state.Terminal() {
			live = append(live, j)
		}
	}
	queued := s.queue
	s.queue = nil
	for _, j := range queued {
		j.ten.queuedJobs--
		j.ten.queuedG.Add(-1)
	}
	s.mu.Unlock()
	for _, j := range live {
		s.mu.Lock()
		j.killed = true
		s.mu.Unlock()
		s.finish(j, Killed, "")
	}
}
