package splay

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/controller"
	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/faults"
)

// slot is one entry of a session's population table, which the fault
// actuators and the churn executor's start/stop closures both read: a
// provisioned daemon, tracked so the fault plane can crash and revive it,
// or a churn-trace slot and the instance its last join started. The
// construction closure rebuilds an identical daemon (same host, config,
// registry, instruments) when a Restart event fires; a restarted daemon
// re-registers under its old name, replacing the dead controller session.
type slot struct {
	host int    // simulated host index (-1 live)
	name string // simnet host name / live loopback IP
	down bool
	mk   func() *daemon.Daemon // controller-provisioned slots
	d    *daemon.Daemon
	inst *core.Instance // churned slots: the running instance, nil while away
}

// actuators implements faults.Actuators over a Session: simnet hooks on
// simulated testbeds, daemon kill/restart plus the shared RPC rule set
// live. Methods run on engine tasks — kernel tasks in simulation (which
// is what the simnet fault hooks require), goroutines live; the mutex
// serializes the live case and is uncontended under the cooperative
// simulation scheduler.
type actuators struct {
	s    *Session
	logf func(format string, args ...any)

	mu        sync.Mutex
	rpcFaults []faults.RPCRule
	degrade   *faults.RPCRule // live Degrade rides the RPC filter
}

// upSlots returns the currently alive slots (callers hold a.mu).
func (a *actuators) upSlots() []*slot {
	up := make([]*slot, 0, len(a.s.slots))
	for _, sl := range a.s.slots {
		if !sl.down {
			up = append(up, sl)
		}
	}
	return up
}

// Crash implements faults.Actuators: it kills fraction (or count) of the
// alive daemons — instances die with them, and on simulated testbeds the
// host drops off the network.
func (a *actuators) Crash(fraction float64, count int) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	up := a.upSlots()
	n := count
	if n <= 0 {
		n = int(math.Round(fraction * float64(len(up))))
	}
	if n > len(up) {
		n = len(up)
	}
	if n <= 0 {
		return 0, nil
	}
	a.s.frng.Shuffle(len(up), func(i, j int) { up[i], up[j] = up[j], up[i] })
	for _, sl := range up[:n] {
		sl.d.Close()
		if a.s.nw != nil {
			a.s.nw.Host(sl.host).SetDown(true)
		}
		sl.down = true
		a.logf("faults: crashed daemon %s", sl.name)
	}
	return n, nil
}

// Restart implements faults.Actuators: every crashed slot gets a fresh
// daemon process that reconnects to the controller.
func (a *actuators) Restart() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	var firstErr error
	for _, sl := range a.s.slots {
		if !sl.down {
			continue
		}
		if a.s.nw != nil {
			a.s.nw.Host(sl.host).SetDown(false)
		}
		sl.d = sl.mk()
		if err := sl.d.Connect(a.s.ctlAddr); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue // still down; a later Restart may succeed
		}
		sl.down = false
		n++
	}
	return n, firstErr
}

// Partition implements faults.Actuators. Simulated testbeds get a real
// network bipartition (fraction of the daemons cut away; controller and
// monitoring hosts stay on the majority side). Live testbeds have no
// substrate to cut, so the selected daemons' controller sessions are
// dropped instead — a control-plane partition that exercises reconnect
// while application links stay up.
func (a *actuators) Partition(fraction float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	slots := a.s.slots
	n := int(math.Round(fraction * float64(len(slots))))
	if n <= 0 || n >= len(slots) {
		return fmt.Errorf("splay: partition fraction %g selects %d of %d daemons", fraction, n, len(slots))
	}
	idx := a.s.frng.Perm(len(slots))[:n]
	if a.s.nw != nil {
		side := make([]bool, a.s.nw.NumHosts())
		for _, i := range idx {
			side[slots[i].host] = true
		}
		a.s.nw.Partition(side)
		return nil
	}
	for _, i := range idx {
		a.s.ctl.DropDaemon(slots[i].name)
	}
	return nil
}

// Heal implements faults.Actuators: the partition is removed (no-op
// live — dropped daemons redial on their own).
func (a *actuators) Heal() error {
	if a.s.nw != nil {
		a.s.nw.HealPartition()
	}
	return nil
}

// Degrade implements faults.Actuators: simulated testbeds degrade the
// daemon hosts' links in the network model; live the degradation rides
// the RPC message filter (delay plus drop probability on every method).
func (a *actuators) Degrade(extraLatency time.Duration, loss float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.s.nw != nil {
		hosts := make([]bool, a.s.nw.NumHosts())
		for _, sl := range a.s.slots {
			hosts[sl.host] = true
		}
		a.s.nw.Degrade(hosts, extraLatency, loss)
		return nil
	}
	if a.s.rpcRules == nil {
		return errors.New("splay: live degradation needs the RPC fault filter (non-empty fault plan)")
	}
	a.degrade = &faults.RPCRule{Drop: loss, Delay: extraLatency}
	a.rebuildRules()
	return nil
}

// Restore implements faults.Actuators.
func (a *actuators) Restore() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.s.nw != nil {
		a.s.nw.Restore()
		return nil
	}
	a.degrade = nil
	a.rebuildRules()
	return nil
}

// SetRPCFault implements faults.Actuators: filters compose — each call
// adds one rule; ClearRPCFault removes them all.
func (a *actuators) SetRPCFault(method string, drop float64, delay time.Duration) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.s.rpcRules == nil {
		return errors.New("splay: the RPC fault filter is only wired for non-empty fault plans")
	}
	a.rpcFaults = append(a.rpcFaults, faults.RPCRule{Method: method, Drop: drop, Delay: delay})
	a.rebuildRules()
	return nil
}

// ClearRPCFault implements faults.Actuators.
func (a *actuators) ClearRPCFault() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.s.rpcRules == nil {
		return nil
	}
	a.rpcFaults = nil
	a.rebuildRules()
	return nil
}

// rebuildRules reinstalls the shared RPC rule set from the current
// degradation and fault filters (callers hold a.mu).
func (a *actuators) rebuildRules() {
	a.s.rpcRules.Clear()
	if a.degrade != nil {
		a.s.rpcRules.Add(*a.degrade)
	}
	for _, r := range a.rpcFaults {
		a.s.rpcRules.Add(r)
	}
}

// Grow implements faults.Actuators: count additional instances of the
// scenario's first application are deployed through the controller. The
// submission runs as its own driver task so a slow deployment never
// stalls the engine's evaluation ticks.
func (a *actuators) Grow(count int) error {
	if count <= 0 {
		return fmt.Errorf("splay: grow count %d", count)
	}
	if a.s.ctl == nil {
		return fmt.Errorf("splay: grow %d: %w", count, ErrNoController)
	}
	if len(a.s.sc.Apps) == 0 {
		return errors.New("splay: grow needs a deployed application")
	}
	spec := a.s.sc.Apps[0]
	js := controller.JobSpec{
		App: spec.Name, Params: spec.Params, Nodes: count,
		Superset: spec.Superset, FullList: spec.FullList,
	}
	a.s.Go(func() {
		if _, err := a.s.ctl.Submit(js); err != nil {
			a.logf("faults: grow %d: %v", count, err)
		}
	})
	return nil
}

// ArmFaults starts the scenario's fault plan and assertions relative to
// now — Run calls it right after the deployments finish; Start callers
// that interleave custom phases arm explicitly when their system is in
// the state the plan's clock should start from. Arming an empty plan
// with no assertions is a no-op; arming twice is idempotent.
func (s *Session) ArmFaults() error {
	if s.eng != nil {
		return nil
	}
	plan := s.sc.Faults
	asserts := s.sc.Assert
	if plan.Empty() && len(asserts) == 0 {
		return nil
	}
	if (len(plan.Rules) > 0 || len(asserts) > 0) && s.agg == nil {
		return errors.New("splay: trigger rules and assertions need Collect.Metrics")
	}
	var view faults.View
	if s.agg != nil {
		view = s.agg
	}
	logf := func(string, ...any) {}
	if lg := s.sc.simLogger(s.rt); lg != nil {
		logf = lg.Printf
	}
	// Victim selection draws from its own seeded stream, so injecting a
	// fault never perturbs the runtime's random sequence.
	s.frng = rand.New(rand.NewSource(s.seed ^ 0x5fa17))
	s.act = &actuators{s: s, logf: logf}
	s.eng = faults.NewEngine(s.rt, view, s.act, plan, asserts, logf)
	s.eng.Arm()
	return nil
}

// CheckAssertions runs the final assertion evaluation and returns the
// typed *AssertionError when any predicate was violated — nil otherwise,
// including when no fault engine was ever armed.
func (s *Session) CheckAssertions() error {
	if s.eng == nil {
		return nil
	}
	if aerr := s.eng.Finish(); aerr != nil {
		return aerr
	}
	return nil
}

// Firings returns the trigger-rule activations so far, in firing order.
func (s *Session) Firings() []Firing {
	if s.eng == nil {
		return nil
	}
	return s.eng.Firings()
}
