package splay

import (
	"io"

	"github.com/splaykit/splay/internal/churn"
)

// ChurnSpec drives a scenario's population dynamics from a synthetic
// script or a recorded trace (the paper's §3.5 churn management): node
// slots join and leave on schedule, each start instantiating the
// scenario's first application (job.nodes names one running instance to
// bootstrap from, all of them with AppSpec.FullList) and each stop
// killing it and taking the host down. The trace is the deployment: a
// churned scenario has no controller or daemons, but collects metrics
// and logs, takes network and RPC faults and checks assertions like any
// other; what acts on daemons returns ErrNoController. The zero value
// means no churn.
type ChurnSpec struct {
	trace churn.Trace
}

// Enabled reports whether the spec carries a trace.
func (c ChurnSpec) Enabled() bool { return len(c.trace) > 0 }

// Slots is the host population the trace addresses.
func (c ChurnSpec) Slots() int {
	if !c.Enabled() {
		return 0
	}
	return c.trace.MaxSlot() + 1
}

// ChurnScript parses the paper's churn-description language ("at 30s
// join 100", "from 5m to 10m inc 10 churn 50%", …) and expands it into
// a trace with the given seed.
func ChurnScript(src string, seed int64) (ChurnSpec, error) {
	s, err := churn.ParseScript(src)
	if err != nil {
		return ChurnSpec{}, err
	}
	return ChurnSpec{trace: churn.FromScript(s, seed)}, nil
}

// ChurnTrace reads a recorded trace ("<offset_ms> <join|leave> <slot>"
// per line), e.g. a translated File System Master trace.
func ChurnTrace(r io.Reader) (ChurnSpec, error) {
	tr, err := churn.ReadTrace(r)
	if err != nil {
		return ChurnSpec{}, err
	}
	return ChurnSpec{trace: tr}, nil
}
