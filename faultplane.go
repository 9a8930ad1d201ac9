package splay

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/splaykit/splay/internal/core"
	"github.com/splaykit/splay/internal/daemon"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/simnet"
	"github.com/splaykit/splay/internal/stream"
)

// slot is one entry of a session's population table, which the fault
// actuators and the churn executor's start/stop closures both read: a
// provisioned daemon, tracked so the fault plane can crash and revive it,
// or a churn-trace slot and the instance its last join started. A Restart
// event rebuilds an identical daemon through Session.newDaemon; it
// re-registers under its old name, replacing the dead controller session.
type slot struct {
	host int    // simulated host index (-1 live)
	name string // simnet host name / live loopback IP
	down bool
	d    *daemon.Daemon // controller-provisioned slots
	inst *core.Instance // churned slots: the running instance, nil while away
}

// actuators implements faults.Actuators over a Session: simnet hooks on
// simulated testbeds, daemon kill/restart, and the RPC rule sets live.
// Methods run on engine tasks — kernel tasks of the session's home
// partition in simulation, goroutines live. What the engine decides with —
// the slot table's up/down column, the victim stream, the RPC filters in
// force — lives on the home partition; what belongs to a host or to a
// partition's replica is changed there, by Session.stage and onHost:
// inline on one partition and live, at the window's barrier otherwise. The
// mutex serializes the live case and is uncontended under the cooperative
// simulation scheduler.
type actuators struct {
	s *Session

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
	n := min(faults.Victims(fraction, count, len(up)), len(up))
	if n <= 0 {
		return 0, nil
	}
	a.s.frng.Shuffle(len(up), func(i, j int) { up[i], up[j] = up[j], up[i] })
	for _, sl := range up[:n] {
		sl.down = true
		a.s.onHost(sl.host, func() {
			sl.d.Close()
			if a.s.nw != nil {
				a.s.nw.Host(sl.host).SetDown(true)
			}
		})
		a.s.logf(a.s.home, "faults: crashed daemon %s", sl.name)
	}
	return n, nil
}

// Restart implements faults.Actuators: every crashed slot gets a fresh
// daemon process that reconnects to the controller, on its host's
// partition; the slot counts as up again once the reconnect succeeded
// (a later Restart may retry one that failed). On a partitioned testbed
// the reconnects run in parallel and report back at a later barrier, so
// the count and first error returned cover only what finished inline.
func (a *actuators) Restart() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	var firstErr error
	for i, sl := range a.s.slots {
		if !sl.down {
			continue
		}
		a.s.onHost(sl.host, func() {
			if a.s.nw != nil {
				a.s.nw.Host(sl.host).SetDown(false)
			}
			sl.d = a.s.newDaemon(i)
			err := sl.d.Connect(a.s.ctlAddr)
			a.s.stage(a.s.partOf(sl.name), a.s.home, func() {
				if err != nil {
					firstErr = cmp.Or(firstErr, err)
					return
				}
				sl.down = false
				n++
			})
		})
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
	n := faults.Victims(fraction, 0, len(slots))
	if n <= 0 || n >= len(slots) {
		return fmt.Errorf("splay: partition fraction %g selects %d of %d daemons", fraction, n, len(slots))
	}
	idx := a.s.frng.Perm(len(slots))[:n]
	if a.s.nw != nil {
		side := make([]bool, a.s.nw.NumHosts())
		for _, i := range idx {
			side[slots[i].host] = true
		}
		a.s.nw.Partition(a.s.home, side)
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
		a.s.nw.HealPartition(a.s.home)
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
		a.s.nw.Degrade(a.s.home, hosts, extraLatency, loss)
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
		a.s.nw.Restore(a.s.home)
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

// rebuildRules reinstalls every partition's RPC rule set from the current
// degradation and fault filters (callers hold a.mu).
func (a *actuators) rebuildRules() {
	var rules []faults.RPCRule
	if a.degrade != nil {
		rules = append(rules, *a.degrade)
	}
	rules = append(rules, a.rpcFaults...)
	for p := range a.s.rpcRules {
		a.s.stage(a.s.home, p, func() { a.s.rpcRules[p].Set(rules) })
	}
}

// Grow implements faults.Actuators: count additional instances of the
// scenario's first application are deployed through the controller. The
// submission runs as its own driver task, on the controller's partition
// (0, whose logger reports a failure), so a slow deployment never stalls
// the engine's evaluation ticks.
func (a *actuators) Grow(count int) error {
	if a.s.ctl == nil {
		return fmt.Errorf("splay: grow %d: %w", count, ErrNoController)
	}
	if len(a.s.sc.Apps) == 0 {
		return errors.New("splay: grow needs a deployed application")
	}
	js := a.s.jobSpec(a.s.sc.Apps[0], count)
	a.s.stage(a.s.home, 0, func() {
		a.s.rt.Go(func() {
			if _, err := a.s.ctl.Submit(js); err != nil {
				a.s.logf(0, "faults: grow %d: %v", count, err)
			}
		})
	})
	return nil
}

// stage runs fn on kernel partition to for code running on partition from:
// inline on a live or single-partition testbed, otherwise at the current
// lookahead window's barrier (simnet.Network.Stage), so what fn changes is
// visible everywhere at one virtual instant, whatever the worker count.
func (s *Session) stage(from, to int, fn func()) {
	if s.nw == nil {
		fn()
		return
	}
	s.nw.Stage(from, to, fn)
}

// onHost runs fn for the fault engine on the partition that owns host, as a
// task (it may block: a dial, a kill handler): inline in the engine's own
// task on a live or single-partition testbed, otherwise in a task spawned
// there at the window's barrier.
func (s *Session) onHost(host int, fn func()) {
	if s.nw == nil || s.nw.Partitions() == 1 {
		fn()
		return
	}
	rt := s.bed.Runtime(host)
	s.nw.Stage(s.home, s.nw.Host(host).Part(), func() { rt.Go(fn) })
}

// partOf returns the kernel partition of the simulated host named host (0
// live).
func (s *Session) partOf(host string) int {
	if s.nw == nil {
		return 0
	}
	id, err := simnet.HostID(host)
	if err != nil {
		return 0
	}
	return s.nw.Host(id).Part()
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
	s.frng = stream.Rand(s.seed, "faults", 0)
	s.act = &actuators{s: s}
	// The engine runs on the home partition and logs through its logger.
	logf := func(format string, args ...any) { s.logf(s.home, format, args...) }
	s.eng = faults.NewEngine(s.homeRT, view, s.act, plan, asserts, logf)
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
