// Package wire is the one declaration of the serialized Scenario: the
// JSON document a scenario travels in — to disk, between processes,
// over the hosting plane's POST /jobs. The root SDK marshals and
// unmarshals it, the config compiler emits it and hosting admission
// reads it, all through these types, so "same struct, same bytes"
// (DESIGN.md invariant 11) holds by construction. All durations are
// nanoseconds, so no precision is lost to a textual unit.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/sandbox"
)

// Capability bits an Env grant travels as.
const (
	CapNet uint32 = 1 << iota
	CapFS
)

// DefaultSimSeed is what a simulated run, and so a hosted job, resolves a zero Seed to.
const DefaultSimSeed = 2009

// Scenario is the serialized scenario document.
type Scenario struct {
	Name            string             `json:"name,omitempty"`
	Seed            int64              `json:"seed,omitempty"`
	Testbed         *Testbed           `json:"testbed,omitempty"`
	Apps            []App              `json:"apps,omitempty"`
	Churn           []ChurnEvent       `json:"churn,omitempty"`
	Collect         *Collect           `json:"collect,omitempty"`
	Faults          *faults.Plan       `json:"faults,omitempty"`
	Assert          []faults.Assertion `json:"assert,omitempty"`
	DurationNS      time.Duration      `json:"duration_ns,omitempty"`
	RegisterTimeout time.Duration      `json:"register_timeout_ns,omitempty"`
	Workers         int                `json:"workers,omitempty"`
}

// Testbed is a kind-tagged testbed: the running side rebuilds the
// constructor's closures from the recorded kind and parameters.
type Testbed struct {
	Kind    string        `json:"kind"`
	Daemons int           `json:"daemons"`
	RTT     time.Duration `json:"rtt_ns,omitempty"` // uniform
	Bps     float64       `json:"bps,omitempty"`    // uniform
}

// App is one application spec. Implementations travel by name only: the
// running side registers the factory (built-ins register themselves).
type App struct {
	App      string          `json:"app"`
	Params   json.RawMessage `json:"params,omitempty"`
	Nodes    int             `json:"nodes,omitempty"`
	Superset float64         `json:"superset,omitempty"`
	FullList bool            `json:"full_list,omitempty"`
	Env      *Env            `json:"env,omitempty"`
}

// Env is an application's capability grant and sandbox limits.
type Env struct {
	Caps uint32             `json:"caps,omitempty"`
	Net  *sandbox.NetLimits `json:"net,omitempty"`
	FS   *sandbox.FSLimits  `json:"fs,omitempty"`
}

// ChurnEvent is one churn trace entry, exact to the nanosecond (the
// text trace format rounds to milliseconds, which would break
// byte-identical replay).
type ChurnEvent struct {
	At   time.Duration `json:"at"`
	Join bool          `json:"join"`
	Node int           `json:"node"`
}

// Collect is the observability-plane declaration, minus the log writer.
type Collect struct {
	Metrics     bool          `json:"metrics,omitempty"`
	ReportEvery time.Duration `json:"report_every_ns,omitempty"`
	Key         string        `json:"key,omitempty"`
}

// DecodeError is a document Decode refused. Field names the offending
// member when the decoder can tell: the key of an unknown field, the
// dotted path of a mistyped one.
type DecodeError struct {
	Field string
	Err   error
}

func (e *DecodeError) Error() string { return "scenario does not parse: " + e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// Decode parses a serialized scenario strictly: a field the format does
// not declare (a typo such as "duration" for "duration_ns") is an error,
// not a silently applied default. The error is a *DecodeError.
func Decode(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	w := new(Scenario)
	err := dec.Decode(w)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the scenario object")
		}
	}
	if err == nil {
		return w, nil
	}
	derr := &DecodeError{Err: err}
	var terr *json.UnmarshalTypeError
	if errors.As(err, &terr) {
		derr.Field = terr.Field
	} else if q, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		// encoding/json reports unknown fields as a formatted string only.
		derr.Field, _ = strconv.Unquote(q)
	}
	return nil, derr
}
