package splay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/splaykit/splay/internal/hosting"
)

// Remote is a client for a hosting plane (splayd -host, or any
// Session.Host handler): run a Scenario remotely with a one-line
// change — Connect(url, key) instead of a local testbed.
type Remote struct {
	base string
	key  string
	hc   *http.Client
	// Poll spaces Run's job-state polls. Default 1s.
	Poll time.Duration
}

// Connect returns a client for the hosting plane at url, submitting as
// the tenant owning key.
func Connect(url, key string) *Remote {
	return &Remote{
		base: strings.TrimRight(url, "/"),
		key:  key,
		hc:   &http.Client{Timeout: 30 * time.Second},
		Poll: time.Second,
	}
}

// Request issues one authenticated request for path and returns the
// response body undecoded — what the operator routes (/metrics,
// /daemons, /faults/…) are read with. Non-2xx responses come back as
// typed *HostError.
func (r *Remote) Request(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+r.key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, hosting.DecodeError(resp.StatusCode, data)
	}
	return data, nil
}

// call issues one request and decodes the response as a T.
func call[T any](ctx context.Context, r *Remote, method, path string, body []byte) (out T, err error) {
	data, err := r.Request(ctx, method, path, body)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("splay: remote response: %w", err)
	}
	return out, nil
}

// Submit serializes the scenario and submits it.
func (r *Remote) Submit(ctx context.Context, sc Scenario) (HostJob, error) {
	data, err := sc.Marshal()
	if err != nil {
		return HostJob{}, err
	}
	return r.SubmitRaw(ctx, data)
}

// SubmitRaw submits an already-serialized scenario.
func (r *Remote) SubmitRaw(ctx context.Context, scenario []byte) (HostJob, error) {
	return call[HostJob](ctx, r, http.MethodPost, "/jobs", scenario)
}

// Job returns one job's state.
func (r *Remote) Job(ctx context.Context, id string) (HostJob, error) {
	return call[HostJob](ctx, r, http.MethodGet, "/jobs/"+id, nil)
}

// Jobs lists the tenant's jobs.
func (r *Remote) Jobs(ctx context.Context) ([]HostJob, error) {
	return call[[]HostJob](ctx, r, http.MethodGet, "/jobs", nil)
}

// Result returns a finished job's result.
func (r *Remote) Result(ctx context.Context, id string) (HostResult, error) {
	return call[HostResult](ctx, r, http.MethodGet, "/jobs/"+id+"/result", nil)
}

// Kill dequeues or stops a job.
func (r *Remote) Kill(ctx context.Context, id string) error {
	_, err := r.Request(ctx, http.MethodDelete, "/jobs/"+id, nil)
	return err
}

// Usage reports the tenant's accounting.
func (r *Remote) Usage(ctx context.Context, tenant string) (HostUsage, error) {
	return call[HostUsage](ctx, r, http.MethodGet, "/tenants/"+tenant+"/usage", nil)
}

// Run submits a scenario and polls until the job finishes, returning
// its result — the remote analogue of Scenario.Run.
func (r *Remote) Run(ctx context.Context, sc Scenario) (HostResult, error) {
	view, err := r.Submit(ctx, sc)
	if err != nil {
		return HostResult{}, err
	}
	poll := r.Poll
	if poll <= 0 {
		poll = time.Second
	}
	for {
		select {
		case <-ctx.Done():
			return HostResult{}, ctx.Err()
		case <-time.After(poll):
		}
		job, err := r.Job(ctx, view.ID)
		if err != nil {
			return HostResult{}, err
		}
		if job.State.Terminal() {
			return r.Result(ctx, view.ID)
		}
	}
}
