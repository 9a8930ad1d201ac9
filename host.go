package splay

// The hosting plane at the SDK surface: Session.Host turns a
// provisioned session into a resident multi-tenant platform (the
// paper's §4 splayweb vision — many users, one daemon fleet). Tenants
// submit serialized Scenarios (Scenario.Marshal) against per-tenant
// keys; the service queues, fair-share places, watches and kills their
// jobs on the session's shared population. The same service runs over
// a simulated fleet in virtual time (the hostplane experiment) and
// over a live one behind splayd -host, whose HTTP API splay.Connect
// and splayctl speak.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/splaykit/splay/internal/hosting"
	"github.com/splaykit/splay/internal/metrics"
)

// Hosting-plane types, aliased from the service like the rest of the
// SDK surface.
type (
	// HostTenant is one hosted account: name, key, quota.
	HostTenant = hosting.Tenant
	// HostQuota bounds a tenant's share (zero fields = unlimited).
	HostQuota = hosting.Quota
	// HostJob is a hosted job's externally visible state.
	HostJob = hosting.JobView
	// HostResult is a finished hosted job's outcome.
	HostResult = hosting.ResultView
	// HostUsage is a tenant's accounting snapshot.
	HostUsage = hosting.UsageView
	// HostError is the typed error every hosting operation returns.
	HostError = hosting.JobError
	// HostJobState is a hosted job's lifecycle position.
	HostJobState = hosting.JobState
)

// Hosted job states.
const (
	HostQueued    = hosting.Queued
	HostDeploying = hosting.Deploying
	HostRunning   = hosting.Running
	HostDone      = hosting.Done
	HostFailed    = hosting.Failed
	HostKilled    = hosting.Killed
)

// HostConfig parameterizes a session's hosting plane.
type HostConfig struct {
	// Tenants are the accounts admitted at startup.
	Tenants []HostTenant
	// Capacity is the instance budget jobs are packed into (0 sizes it
	// to the live daemon count at each dispatch).
	Capacity int
	// DeployAttempts re-queues a job that many times after a deploy
	// failure before failing it (0 = 2).
	DeployAttempts int
	// RetryDelay spaces re-placement attempts (0 = 1s).
	RetryDelay time.Duration
	// DefaultDuration runs jobs that declare none (0 = 30s).
	DefaultDuration time.Duration
	// MaxDuration clamps declared job durations (0 = unclamped).
	MaxDuration time.Duration
	// Catalog validates submissions at admission (app references and
	// typed parameters) and enables config-document submissions,
	// compiled at the door to the canonical wire form. Nil admits any
	// wire JSON unvalidated and declines documents; BuiltinCatalog()
	// is the usual choice.
	Catalog *Catalog
	// OperatorKey authenticates the handler's operator routes
	// (GET /metrics over the session's aggregator, GET /daemons,
	// POST /faults/inject, POST /faults/heal). Empty refuses them all.
	OperatorKey string
}

// Host is a session's resident hosting plane.
type Host struct {
	svc  *hosting.Service
	sess *Session
}

// Host starts the hosting plane over the session's fleet. When the
// scenario collects metrics, the service's per-tenant instruments
// (host.deploys.<tenant>, host.frames.<tenant>, …) stream to the
// aggregator as node "host". ErrNoController on a churn session.
func (s *Session) Host(cfg HostConfig) (*Host, error) {
	if s.ctl == nil {
		return nil, fmt.Errorf("splay: host: %w", ErrNoController)
	}
	if s.host != nil {
		return nil, errors.New("splay: session already hosts")
	}
	hcfg := hosting.Config{
		Capacity:        cfg.Capacity,
		DeployAttempts:  cfg.DeployAttempts,
		RetryDelay:      cfg.RetryDelay,
		DefaultDuration: cfg.DefaultDuration,
		MaxDuration:     cfg.MaxDuration,
		Catalog:         cfg.Catalog,
		OperatorKey:     cfg.OperatorKey,
		Aggregator:      s.agg,
	}
	var reg *metrics.Registry
	if s.collect != nil {
		reg = metrics.NewRegistry()
		hcfg.Metrics = reg
	}
	svc := hosting.New(s.rt, s.ctl, hcfg)
	for _, t := range cfg.Tenants {
		if err := svc.AddTenant(t); err != nil {
			return nil, err
		}
	}
	h := &Host{svc: svc, sess: s}
	s.host = h
	if reg != nil {
		// The host's instrument stream rides the session's collection
		// plane exactly like the controller's (node "ctl" ↔ node "host").
		s.Go(func() { s.report(s.rt, s.node, "host", reg) })
	}
	return h, nil
}

// Submit serializes a scenario and submits it for the tenant key.
func (h *Host) Submit(key string, sc Scenario) (HostJob, error) {
	data, err := sc.Marshal()
	if err != nil {
		return HostJob{}, err
	}
	return h.svc.Submit(key, data)
}

// SubmitRaw submits an already-serialized scenario.
func (h *Host) SubmitRaw(key string, scenario []byte) (HostJob, error) {
	return h.svc.Submit(key, scenario)
}

// Job returns one job's state.
func (h *Host) Job(key, id string) (HostJob, error) { return h.svc.Job(key, id) }

// Jobs lists the tenant's jobs in submission order.
func (h *Host) Jobs(key string) ([]HostJob, error) { return h.svc.Jobs(key) }

// Result returns a finished job's result.
func (h *Host) Result(key, id string) (HostResult, error) { return h.svc.Result(key, id) }

// Kill dequeues or stops a job.
func (h *Host) Kill(key, id string) error { return h.svc.Kill(key, id) }

// Usage reports the tenant's accounting.
func (h *Host) Usage(key, tenant string) (HostUsage, error) { return h.svc.Usage(key, tenant) }

// Handler exposes the hosting plane's HTTP/JSON API — the handler
// splayd -host serves: the tenant routes (POST /jobs, GET /jobs/{id},
// GET /jobs/{id}/result, DELETE /jobs/{id}, GET /tenants/{t}/usage)
// authenticated per tenant key, and the operator routes behind
// HostConfig.OperatorKey.
func (h *Host) Handler() http.Handler { return h.svc.Handler() }

// Close stops admissions and kills every live job. On a simulated
// session call it from a kernel task (Session.Go); tearing the session
// down with Stop is also enough.
func (h *Host) Close() { h.svc.Close() }
