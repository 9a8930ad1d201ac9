package splay

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/wire"
)

// Scenario serialization: the explicit JSON wire format a Scenario
// travels in — to disk, over the hosting plane's HTTP API (POST /jobs),
// or between processes. The format is sim-neutral (invariant 7) and
// run-preserving (invariant 10): Unmarshal(Marshal(sc)) yields a
// Scenario whose runs are byte-identical to runs of sc itself, pinned
// by TestScenarioRoundTripByteIdentical.
//
// Two Scenario members cannot travel: inline application code (an
// AppSpec's App or New — the environment executing the scenario must
// register the implementation under the spec's Name instead) and
// Collect.Logs (an io.Writer). Marshal rejects both rather than
// silently dropping them. The document's shape is declared once, in
// internal/wire.

// Marshal serializes the scenario as JSON. It fails on members that
// cannot travel: inline App/New implementations (register the factory
// by name on the running side instead) and a Collect.Logs writer.
func (sc Scenario) Marshal() ([]byte, error) {
	w := wire.Scenario{
		Name:            sc.Name,
		Seed:            sc.Seed,
		DurationNS:      sc.Duration,
		RegisterTimeout: sc.RegisterTimeout,
		Workers:         sc.Workers,
	}
	if sc.Testbed != nil {
		wt, err := marshalTestbed(sc.Testbed)
		if err != nil {
			return nil, err
		}
		w.Testbed = wt
	}
	for _, spec := range sc.Apps {
		if spec.App != nil || spec.New != nil {
			return nil, fmt.Errorf("splay: app %q has an inline implementation; serialized scenarios reference applications by name", spec.Name)
		}
		if spec.Name == "" {
			return nil, errors.New("splay: app spec needs a name")
		}
		wa := wire.App{
			App:      spec.Name,
			Params:   append(json.RawMessage(nil), spec.Params...),
			Nodes:    spec.Nodes,
			Superset: spec.Superset,
			FullList: spec.FullList,
		}
		if e := spec.Env; envNonZero(e) {
			we := &wire.Env{Caps: uint32(e.Caps)}
			if netNonZero(e.Net) {
				n := e.Net
				we.Net = &n
			}
			if e.FS != (FSLimits{}) {
				f := e.FS
				we.FS = &f
			}
			wa.Env = we
		}
		w.Apps = append(w.Apps, wa)
	}
	for _, e := range sc.Churn.trace {
		w.Churn = append(w.Churn, wire.ChurnEvent{At: e.At, Join: e.Action == churn.Join, Node: e.Node})
	}
	if c := sc.Collect; c.Metrics || c.ReportEvery != 0 || c.Key != "" || c.Logs != nil {
		if c.Logs != nil {
			return nil, errors.New("splay: Collect.Logs is a writer and cannot be serialized")
		}
		w.Collect = &wire.Collect{Metrics: c.Metrics, ReportEvery: c.ReportEvery, Key: c.Key}
	}
	if !sc.Faults.Empty() || sc.Faults.EvalEvery != 0 {
		f := sc.Faults
		w.Faults = &f
	}
	w.Assert = sc.Assert
	return json.Marshal(w)
}

// envNonZero reports whether an EnvConfig carries anything worth
// serializing.
func envNonZero(e EnvConfig) bool {
	return e.Caps != 0 || netNonZero(e.Net) || e.FS != (FSLimits{})
}

// netNonZero reports whether net limits carry anything.
func netNonZero(n NetLimits) bool {
	return n.MaxSockets != 0 || n.MaxTxBytes != 0 || n.MaxRxBytes != 0 || len(n.Blacklist) > 0
}

func marshalTestbed(tb Testbed) (*wire.Testbed, error) {
	switch t := tb.(type) {
	case *simTestbed:
		return &wire.Testbed{Kind: t.kind, Daemons: t.daemons, RTT: t.rtt, Bps: t.bps}, nil
	case *liveTestbed:
		return &wire.Testbed{Kind: "live", Daemons: t.daemons}, nil
	}
	return nil, fmt.Errorf("splay: unknown testbed %T", tb)
}

// UnmarshalScenario parses a document produced by Marshal (or written
// by hand against the same format) back into a runnable Scenario. The
// decode is strict: a field the format does not declare is an error.
// Applications are referenced by name; built-ins resolve automatically
// and anything else needs its factory attached (AppSpec.New) before the
// scenario can Start.
func UnmarshalScenario(data []byte) (Scenario, error) {
	w, err := wire.Decode(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("splay: %w", err)
	}
	sc := Scenario{
		Name:            w.Name,
		Seed:            w.Seed,
		Duration:        w.DurationNS,
		RegisterTimeout: w.RegisterTimeout,
		Workers:         w.Workers,
	}
	if w.Testbed != nil {
		tb, err := unmarshalTestbed(w.Testbed)
		if err != nil {
			return Scenario{}, err
		}
		sc.Testbed = tb
	}
	for _, wa := range w.Apps {
		if wa.App == "" {
			return Scenario{}, errors.New("splay: scenario: app entry needs a name")
		}
		spec := AppSpec{
			Name:     wa.App,
			Params:   append([]byte(nil), wa.Params...),
			Nodes:    wa.Nodes,
			Superset: wa.Superset,
			FullList: wa.FullList,
		}
		if wa.Env != nil {
			spec.Env.Caps = Cap(wa.Env.Caps)
			if wa.Env.Net != nil {
				spec.Env.Net = *wa.Env.Net
			}
			if wa.Env.FS != nil {
				spec.Env.FS = *wa.Env.FS
			}
		}
		sc.Apps = append(sc.Apps, spec)
	}
	if len(w.Churn) > 0 {
		tr := make(churn.Trace, len(w.Churn))
		for i, e := range w.Churn {
			act := churn.Leave
			if e.Join {
				act = churn.Join
			}
			tr[i] = churn.Event{At: e.At, Action: act, Node: e.Node}
		}
		sc.Churn = ChurnSpec{trace: tr}
	}
	if w.Collect != nil {
		sc.Collect = Collect{
			Metrics:     w.Collect.Metrics,
			ReportEvery: w.Collect.ReportEvery,
			Key:         w.Collect.Key,
		}
	}
	if w.Faults != nil {
		sc.Faults = *w.Faults
	}
	sc.Assert = w.Assert
	return sc, nil
}

func unmarshalTestbed(w *wire.Testbed) (Testbed, error) {
	if w.Daemons < 0 {
		return nil, fmt.Errorf("splay: scenario: negative daemon count %d", w.Daemons)
	}
	switch w.Kind {
	case "planetlab":
		return PlanetLab(w.Daemons), nil
	case "modelnet":
		return ModelNet(w.Daemons), nil
	case "uniform":
		return Uniform(w.Daemons, w.RTT, w.Bps), nil
	case "live":
		return Live(w.Daemons), nil
	}
	return nil, fmt.Errorf("splay: scenario: unknown testbed kind %q", w.Kind)
}
