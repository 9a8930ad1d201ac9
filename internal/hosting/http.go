package hosting

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"github.com/splaykit/splay/internal/metrics"
)

// maxScenarioBytes bounds one submission body.
const maxScenarioBytes = 4 << 20

// Handler exposes the service over HTTP/JSON — the platform's one door.
// Tenant routes, authenticated by the tenant's key:
//
//	POST   /jobs                submit a serialized Scenario (202)
//	GET    /jobs                list the tenant's jobs
//	GET    /jobs/{id}           one job's state
//	GET    /jobs/{id}/result    a finished job's result
//	DELETE /jobs/{id}           kill (or dequeue) a job
//	GET    /tenants/{t}/usage   the tenant's accounting
//
// Operator routes, authenticated by Config.OperatorKey (a tenant key, or
// any key while none is configured, is refused as auth):
//
//	GET    /metrics             the aggregator's merged series
//	GET    /daemons             connected daemon count
//	POST   /faults/inject       {"kind":"crash"|"partition","count"|"fraction"}:
//	                            crash drops the victims' control sessions,
//	                            partition blacklists them fleet-wide; victims
//	                            are the first n daemon names in sorted order
//	POST   /faults/heal         clear the blacklist
//
// Keys travel as "Authorization: Bearer <key>" (or the X-Splay-Key
// header). Every failure is a typed JobError serialized as
// {"error":{"code":...,"detail":...}} under its code's status: auth 401,
// quota 429, capacity 422, bad_scenario and bad_request 400 (a
// submission over 4 MiB included), unknown_job 404, pending 409,
// closed 503.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		// The bound rejects, it never truncates: a config document is
		// line-oriented, so a cut body could still compile — to a
		// different job than the one submitted.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioBytes))
		if err != nil {
			detail := "unreadable body"
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				detail = "body exceeds 4 MiB"
			}
			s.rejects.Inc()
			writeErr(w, &JobError{Code: ErrBadScenario, Detail: detail})
			return
		}
		view, jerr := s.Submit(clientKey(r), body)
		if jerr != nil {
			writeErr(w, jerr)
			return
		}
		writeJSON(w, http.StatusAccepted, view)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		views, err := s.Jobs(clientKey(r))
		if err != nil {
			writeErr(w, err)
			return
		}
		if views == nil {
			views = []JobView{}
		}
		writeJSON(w, http.StatusOK, views)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, err := s.Job(clientKey(r), r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Result(clientKey(r), r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Kill(clientKey(r), r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "killed"})
	})
	mux.HandleFunc("GET /tenants/{t}/usage", func(w http.ResponseWriter, r *http.Request) {
		usage, err := s.Usage(clientKey(r), r.PathValue("t"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, usage)
	})
	mux.HandleFunc("GET /metrics", s.operator(func(w http.ResponseWriter, _ *http.Request) {
		snaps := []metrics.SeriesSnapshot{}
		if s.cfg.Aggregator != nil {
			snaps = s.cfg.Aggregator.Snapshot()
		}
		writeJSON(w, http.StatusOK, snaps)
	}))
	mux.HandleFunc("GET /daemons", s.operator(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]int{"daemons": s.fleet.Daemons()})
	}))
	// Fault drills — the live counterparts of the scenario SDK's fault
	// plan, driven over HTTP so chaos tooling needs no Go. Reconnect-enabled
	// daemons redial a dropped session with backoff; a blacklist reaches
	// every daemon's sandbox, which then refuses traffic to the cut side.
	mux.HandleFunc("POST /faults/inject", s.operator(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Kind     string  `json:"kind"`
			Count    int     `json:"count"`
			Fraction float64 `json:"fraction"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<10))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, &JobError{Code: ErrBadRequest, Err: err})
			return
		}
		names := s.fleet.DaemonNames()
		sort.Strings(names)
		n := req.Count
		if n <= 0 && req.Fraction > 0 {
			n = int(req.Fraction * float64(len(names)))
		}
		if n <= 0 || n > len(names) {
			writeErr(w, &JobError{Code: ErrBadRequest,
				Detail: fmt.Sprintf("need a count (or fraction) selecting 1..%d daemons", len(names))})
			return
		}
		victims := names[:n]
		switch req.Kind {
		case "crash":
			dropped := make([]string, 0, n)
			for _, name := range victims {
				if s.fleet.DropDaemon(name) {
					dropped = append(dropped, name)
				}
			}
			writeJSON(w, http.StatusOK, map[string]any{"kind": "crash", "dropped": dropped})
		case "partition":
			s.fleet.SetBlacklist(victims)
			writeJSON(w, http.StatusOK, map[string]any{"kind": "partition", "blacklisted": victims})
		default:
			writeErr(w, &JobError{Code: ErrBadRequest, Detail: "kind must be crash or partition"})
		}
	}))
	mux.HandleFunc("POST /faults/heal", s.operator(func(w http.ResponseWriter, _ *http.Request) {
		s.fleet.SetBlacklist(nil)
		writeJSON(w, http.StatusOK, map[string]any{"healed": true, "daemons": s.fleet.Daemons()})
	}))
	return mux
}

// operator guards a route with the operator credential. The comparison
// is constant-time; with no OperatorKey configured nothing passes.
func (s *Service) operator(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		want := s.cfg.OperatorKey
		if want == "" || subtle.ConstantTimeCompare([]byte(clientKey(r)), []byte(want)) != 1 {
			s.rejects.Inc()
			writeErr(w, &JobError{Code: ErrAuth, Detail: "operator key required"})
			return
		}
		next(w, r)
	}
}

// clientKey extracts the tenant (or operator) key from a request.
func clientKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return key
		}
	}
	return r.Header.Get("X-Splay-Key")
}

// httpStatus maps a JobError code to its status line.
func httpStatus(code ErrorCode) int {
	switch code {
	case ErrAuth:
		return http.StatusUnauthorized
	case ErrQuota:
		return http.StatusTooManyRequests
	case ErrCapacity:
		return http.StatusUnprocessableEntity
	case ErrBadScenario, ErrBadRequest:
		return http.StatusBadRequest
	case ErrUnknownJob:
		return http.StatusNotFound
	case ErrPending:
		return http.StatusConflict
	case ErrClosed:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// errBody is the error response document: the JobError under "error"
// (its Err does not travel; writeErr folds the text into Detail).
type errBody struct {
	Error JobError `json:"error"`
}

// DecodeError parses an error response body back into a typed
// *JobError — the client half of writeErr.
func DecodeError(status int, body []byte) *JobError {
	var eb errBody
	if json.Unmarshal(body, &eb) == nil && eb.Error.Code != "" {
		return &eb.Error
	}
	return &JobError{Code: ErrorCode("http"), Detail: http.StatusText(status)}
}

func writeErr(w http.ResponseWriter, err error) {
	var jerr *JobError
	if !errors.As(err, &jerr) {
		jerr = &JobError{Code: ErrorCode("internal"), Detail: err.Error()}
	}
	eb := errBody{Error: *jerr}
	if jerr.Err != nil {
		if eb.Error.Detail != "" {
			eb.Error.Detail += ": "
		}
		eb.Error.Detail += jerr.Err.Error()
	}
	writeJSON(w, httpStatus(jerr.Code), eb)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}
