// Package config is the config plane: a human-authorable scenario
// document format (a strict YAML subset with human units — "30s",
// "512kbps", "64KB", "50%") that compiles to the scenario SDK's
// canonical wire JSON, validated against the app catalog so unknown
// applications, unknown keys and out-of-range values fail with typed
// *Errors carrying line and field positions — never silently default.
//
// The compiler emits exactly the bytes Scenario.Marshal would produce
// for the equivalent handwritten-Go scenario (invariant 11, DESIGN.md):
// both fill the same internal/wire structs, so the document shape agrees
// by construction, and the root package's differential tests and the
// golden-pinned configplane experiment pin the compiled values. Emitting
// the wire form (rather than a Scenario value) is what lets both the
// root SDK and the hosting plane's admission path share one compiler
// without an import cycle.
package config

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/splaykit/splay/internal/apps"
	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/faults"
	"github.com/splaykit/splay/internal/sandbox"
	"github.com/splaykit/splay/internal/wire"
)

// Options parameterizes compilation.
type Options struct {
	// Catalog validates application references and parameters; nil uses
	// the built-in catalog.
	Catalog *Catalog
	// Open loads a churn trace reference (churn: {trace: path}),
	// resolved by the caller (LoadScenarioFile resolves relative to the
	// document). Nil declines trace references with a typed
	// ErrUnsupported — in-memory and hosted documents cannot reach
	// files.
	Open func(path string) ([]byte, error)
}

// IsDocument reports whether data is a config document rather than
// wire JSON: wire scenarios are JSON objects, so anything whose first
// non-space byte is not '{' is treated as a document.
func IsDocument(data []byte) bool {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return false
		default:
			return true
		}
	}
	return true
}

// Validate compiles the document and discards the output: authoring
// feedback without a scenario.
func Validate(data []byte, opt Options) *Error {
	_, err := Compile(data, opt)
	return err
}

// Compile parses a scenario document and emits the canonical wire JSON
// (the Scenario.Marshal format). The result runs anywhere serialized
// scenarios do: splay.UnmarshalScenario, POST /jobs, splayctl submit.
func Compile(data []byte, opt Options) ([]byte, *Error) {
	cat := opt.Catalog
	if cat == nil {
		cat = builtinCatalog
	}
	doc, perr := parseDoc(data)
	if perr != nil {
		return nil, perr
	}
	c := &compiler{cat: cat, open: opt.Open}
	w, perr := c.scenario(doc)
	if perr != nil {
		return nil, perr
	}
	out, err := json.Marshal(w)
	if err != nil {
		return nil, &Error{Code: ErrBadValue, Msg: fmt.Sprintf("scenario does not serialize: %v", err)}
	}
	return out, nil
}

type compiler struct {
	cat  *Catalog
	open func(string) ([]byte, error)

	// reportAt anchors "report: true" params so a document that asks an
	// app to report without a collect plane fails with a position.
	reportAt *node
}

// Every document section is a mapping declared once, as a field table:
// each entry names a key and how its value converts, so the keys a
// section accepts and the keys it decodes are the same list. bind walks
// a table over a node.

// field is one entry of a section's table.
type field struct {
	key string
	// kind converts a scalar value the way app parameters convert, into
	// dst: a *string, *bool, *int, *int64, *float64 or *time.Duration.
	kind apps.ParamKind
	dst  any
	// bound, when set, confines a converted number.
	bound *bound
	// conv converts the value instead of kind and dst. An entry without
	// a key is a check on the whole section, run with the section's node
	// at its place in the table.
	conv func(n *node, path string) *Error
	// required, when set, is the message for an absent key.
	required string
	// before, when set, runs the entry just ahead of that key's entry
	// rather than at its own place in the table.
	before string
}

// bound rejects numbers outside min..max with msg, formatted with the
// converted value when it has a verb.
type bound struct {
	min, max float64
	msg      string
}

var portRange = &bound{1, 65535, "port %d is outside 1..65535"}

// bind checks that n is a mapping (what names it in the error), rejects
// keys outside the table, and then runs the table's entries in order,
// each entry with a before just ahead of its key's: an absent key is
// skipped or, when required, reported missing; a present one is
// converted.
func bind(n *node, path, what string, fields []field) *Error {
	if n.kind != mapNode {
		return errf(ErrBadValue, path, n, "%s must be a mapping", what)
	}
	for i := range n.keys {
		e := &n.keys[i]
		if !slices.ContainsFunc(fields, func(f field) bool { return f.key == e.key }) {
			var want []string
			for _, f := range fields {
				if f.key != "" {
					want = append(want, f.key)
				}
			}
			return &Error{Code: ErrUnknownField, Path: joinPath(path, e.key), Line: e.keyLine, Col: e.keyCol,
				Msg: fmt.Sprintf("unknown field %q (want %s)", e.key, strings.Join(want, ", "))}
		}
	}
	for i := range fields {
		f := &fields[i]
		if f.before != "" {
			continue
		}
		for j := range fields {
			if g := &fields[j]; f.key != "" && g.before == f.key {
				if perr := g.bind(n, path); perr != nil {
					return perr
				}
			}
		}
		if perr := f.bind(n, path); perr != nil {
			return perr
		}
	}
	return nil
}

// bind runs one entry against its section's node.
func (f *field) bind(sec *node, path string) *Error {
	if f.key == "" {
		return f.conv(sec, path)
	}
	path = joinPath(path, f.key)
	n := sec.get(f.key)
	switch {
	case n == nil && f.required != "":
		return errf(ErrMissing, path, sec, "%s", f.required)
	case n == nil:
		return nil
	case f.conv != nil:
		return f.conv(n, path)
	}
	return convert(n, path, f.kind, f.dst, f.bound)
}

// convert converts a scalar per kind, confines it to b (when set) and
// stores it in dst.
func convert(n *node, path string, kind apps.ParamKind, dst any, b *bound) *Error {
	val, num, perr := scalarValue(kind, n, path)
	if perr != nil {
		return perr
	}
	if b != nil && (num < b.min || num > b.max) {
		msg := b.msg
		if strings.Contains(msg, "%") {
			msg = fmt.Sprintf(msg, val)
		}
		return errf(ErrOutOfRange, path, n, "%s", msg)
	}
	switch d := dst.(type) {
	case *string:
		*d = val.(string)
	case *bool:
		*d = val.(bool)
	case *int:
		*d = int(val.(int64))
	case *int64:
		*d = val.(int64)
	case *float64:
		*d = val.(float64)
	case *time.Duration:
		*d = val.(time.Duration)
	default:
		panic(fmt.Sprintf("config: no %v value lands in %T", kind, dst))
	}
	return nil
}

// eachItem converts every item of a list value, each at path[i].
func eachItem(n *node, path string, item func(n *node, path string) *Error) *Error {
	if n.kind != listNode {
		return errf(ErrBadValue, path, n, "%s must be a list", lastKey(path))
	}
	for i, it := range n.items {
		if perr := item(it, fmt.Sprintf("%s[%d]", path, i)); perr != nil {
			return perr
		}
	}
	return nil
}

// lastKey is the key a path ends in.
func lastKey(path string) string {
	return path[strings.LastIndexByte(path, '.')+1:]
}

func joinPath(base, key string) string {
	if base == "" {
		return key
	}
	return base + "." + key
}

func (c *compiler) scenario(doc *node) (*wire.Scenario, *Error) {
	w := &wire.Scenario{}
	outOfRange := &bound{0, 1 << 31, "%d is out of range"}
	return w, bind(doc, "", "a scenario", []field{
		{key: "name", kind: apps.KindString, dst: &w.Name},
		{key: "seed", kind: apps.KindInt, dst: &w.Seed},
		{key: "testbed", conv: func(n *node, path string) (perr *Error) {
			w.Testbed, perr = testbed(n, path)
			return perr
		}},
		{key: "apps", required: "scenario deploys no applications", conv: func(n *node, path string) *Error {
			return eachItem(n, path, func(n *node, path string) *Error {
				wa, perr := c.app(n, path)
				w.Apps = append(w.Apps, wa)
				return perr
			})
		}},
		{key: "churn", conv: func(n *node, path string) (perr *Error) {
			w.Churn, perr = c.churn(n, path, w.Seed)
			return perr
		}},
		// collect is read before churn: report: true needs it.
		{key: "collect", before: "churn", conv: func(n *node, path string) (perr *Error) {
			w.Collect, perr = collect(n, path)
			return perr
		}},
		{before: "churn", conv: func(*node, string) *Error {
			if c.reportAt != nil && (w.Collect == nil || !w.Collect.Metrics) {
				return errf(ErrBadValue, "", c.reportAt,
					"report: true needs collect.metrics: true — nothing collects the stream")
			}
			return nil
		}},
		{key: "faults", conv: func(n *node, path string) (perr *Error) {
			w.Faults, perr = faultPlan(n, path)
			return perr
		}},
		{key: "assert", conv: func(n *node, path string) *Error {
			return eachItem(n, path, func(n *node, path string) *Error {
				a, perr := assertion(n, path)
				w.Assert = append(w.Assert, a)
				return perr
			})
		}},
		{key: "settle", kind: apps.KindDuration, dst: &w.SettleNS},
		{key: "duration", kind: apps.KindDuration, dst: &w.DurationNS},
		{key: "register_timeout", kind: apps.KindDuration, dst: &w.RegisterTimeout},
		{key: "controller_port", kind: apps.KindInt, dst: &w.ControllerPort, bound: outOfRange},
		{key: "workers", kind: apps.KindInt, dst: &w.Workers, bound: outOfRange},
	})
}

const testbedKinds = "planetlab, modelnet, uniform or live"

func testbed(n *node, path string) (*wire.Testbed, *Error) {
	w := &wire.Testbed{}
	uniformOnly := func(kind apps.ParamKind, dst any) func(*node, string) *Error {
		return func(n *node, path string) *Error {
			if w.Kind != "uniform" {
				return errf(ErrBadValue, path, n, "%s applies to uniform testbeds only", lastKey(path))
			}
			return convert(n, path, kind, dst, nil)
		}
	}
	return w, bind(n, path, "testbed", []field{
		{key: "kind", required: "want " + testbedKinds, conv: func(n *node, path string) *Error {
			if perr := convert(n, path, apps.KindString, &w.Kind, nil); perr != nil {
				return perr
			}
			switch w.Kind {
			case "planetlab", "modelnet", "uniform", "live":
				return nil
			}
			return errf(ErrBadValue, path, n, "unknown testbed %q (want %s)", w.Kind, testbedKinds)
		}},
		{key: "daemons", required: "daemon count required", kind: apps.KindInt, dst: &w.Daemons,
			bound: &bound{1, 2_000_000, "%d daemons is outside 1..2000000"}},
		{key: "rtt", conv: uniformOnly(apps.KindDuration, &w.RTT)},
		{key: "bps", conv: uniformOnly(apps.KindRate, &w.Bps)},
	})
}

func (c *compiler) app(n *node, path string) (wire.App, *Error) {
	var w wire.App
	perr := bind(n, path, "each apps entry", []field{
		{key: "app", required: "application name required", conv: func(n *node, path string) *Error {
			if perr := convert(n, path, apps.KindString, &w.App, nil); perr != nil {
				return perr
			}
			if _, ok := c.cat.Lookup(w.App); !ok {
				return errf(ErrUnknownApp, path, n, "unknown application %q (catalog: %v)", w.App, c.cat.Names())
			}
			return nil
		}},
		{key: "params", conv: func(n *node, path string) (perr *Error) {
			if w.Params, perr = c.cat.compileParams(w.App, n, path); perr != nil {
				return perr
			}
			if r := n.get("report"); c.reportAt == nil && r != nil && r.scalar == "true" {
				c.reportAt = r
			}
			return nil
		}},
		{key: "nodes", kind: apps.KindInt, dst: &w.Nodes, bound: &bound{1, 2_000_000, "%d nodes is outside 1..2000000"}},
		{key: "superset", kind: apps.KindFloat, dst: &w.Superset, bound: &bound{1, 10, "superset %g is outside 1..10"}},
		{key: "full_list", kind: apps.KindBool, dst: &w.FullList},
		{key: "env", conv: func(n *node, path string) (perr *Error) {
			w.Env, perr = env(n, path)
			return perr
		}},
		{key: "port", kind: apps.KindInt, dst: &w.Port, bound: portRange},
	})
	return w, perr
}

func env(n *node, path string) (*wire.Env, *Error) {
	w := &wire.Env{}
	perr := bind(n, path, "env", []field{
		{key: "caps", conv: func(n *node, path string) *Error {
			switch n.kind {
			case scalarNode:
				if n.scalar != "all" {
					return errf(ErrBadValue, path, n, "want \"all\" or a list like [net, fs], got %q", n.scalar)
				}
				w.Caps = wire.CapNet | wire.CapFS
			case listNode:
				for _, item := range n.items {
					switch item.scalar {
					case "net":
						w.Caps |= wire.CapNet
					case "fs":
						w.Caps |= wire.CapFS
					default:
						return errf(ErrBadValue, path, item, "unknown capability %q (want net or fs)", item.scalar)
					}
				}
				if w.Caps == 0 {
					return errf(ErrBadValue, path, n,
						"an empty capability list would grant everything; omit caps instead")
				}
			default:
				return errf(ErrBadValue, path, n, "want \"all\" or a list like [net, fs]")
			}
			return nil
		}},
		{key: "net", conv: func(n *node, path string) *Error {
			lim := &sandbox.NetLimits{}
			w.Net = lim
			return bind(n, path, "net", []field{
				{key: "max_sockets", kind: apps.KindInt, dst: &lim.MaxSockets},
				{key: "max_tx", kind: apps.KindSize, dst: &lim.MaxTxBytes},
				{key: "max_rx", kind: apps.KindSize, dst: &lim.MaxRxBytes},
				{key: "blacklist", conv: func(n *node, path string) *Error {
					return eachItem(n, path, func(item *node, _ string) *Error {
						var host string
						perr := convert(item, path, apps.KindString, &host, nil)
						lim.Blacklist = append(lim.Blacklist, host)
						return perr
					})
				}},
			})
		}},
		{key: "fs", conv: func(n *node, path string) *Error {
			lim := &sandbox.FSLimits{}
			w.FS = lim
			return bind(n, path, "fs", []field{
				{key: "max_bytes", kind: apps.KindSize, dst: &lim.MaxBytes},
				{key: "max_open_files", kind: apps.KindInt, dst: &lim.MaxOpenFiles},
			})
		}},
	})
	if perr != nil || w.Caps == 0 && w.Net == nil && w.FS == nil {
		return nil, perr
	}
	return w, nil
}

func collect(n *node, path string) (*wire.Collect, *Error) {
	w := &wire.Collect{}
	return w, bind(n, path, "collect", []field{
		{key: "metrics", kind: apps.KindBool, dst: &w.Metrics},
		{key: "report_every", kind: apps.KindDuration, dst: &w.ReportEvery},
		{key: "key", kind: apps.KindString, dst: &w.Key},
		{key: "metrics_port", kind: apps.KindInt, dst: &w.MetricsPort, bound: portRange},
	})
}

// churn expands a script or a trace into the explicit timeline. The two
// are one source: each entry only notes its value, exactly one must be
// there, and it expands once churn.seed is read.
func (c *compiler) churn(n *node, path string, seed int64) ([]wire.ChurnEvent, *Error) {
	var sources int
	var expand func() (churn.Trace, *Error)
	perr := bind(n, path, "churn", []field{
		{key: "script", conv: func(n *node, path string) *Error {
			sources++
			expand = func() (churn.Trace, *Error) { return script(n, path, seed) }
			return nil
		}},
		{key: "trace", conv: func(n *node, path string) *Error {
			sources++
			expand = func() (churn.Trace, *Error) { return c.trace(n, path) }
			return nil
		}},
		{conv: func(n *node, path string) *Error {
			if sources != 1 {
				return errf(ErrBadValue, path, n, "churn takes exactly one of script or trace")
			}
			return nil
		}},
		{key: "seed", kind: apps.KindInt, dst: &seed},
	})
	if perr != nil {
		return nil, perr
	}
	tr, perr := expand()
	if perr != nil {
		return nil, perr
	}
	out := make([]wire.ChurnEvent, len(tr))
	for i, e := range tr {
		out[i] = wire.ChurnEvent{At: e.At, Join: e.Action == churn.Join, Node: e.Node}
	}
	return out, nil
}

// script expands a synthetic churn description: one line or a list of lines.
func script(n *node, path string, seed int64) (churn.Trace, *Error) {
	var lines []string
	switch n.kind {
	case scalarNode:
		lines = []string{n.scalar}
	case listNode:
		lines = make([]string, len(n.items))
		for i, item := range n.items {
			if perr := convert(item, path, apps.KindString, &lines[i], nil); perr != nil {
				return nil, perr
			}
		}
	default:
		return nil, errf(ErrBadValue, path, n, "script must be a line or a list of lines")
	}
	s, err := churn.ParseScript(strings.Join(lines, "\n"))
	if err != nil {
		return nil, errf(ErrBadValue, path, n, "%v", err)
	}
	return churn.FromScript(s, seed), nil
}

// trace loads a churn trace reference through the caller's loader.
func (c *compiler) trace(n *node, path string) (churn.Trace, *Error) {
	var ref string
	if perr := convert(n, path, apps.KindString, &ref, nil); perr != nil {
		return nil, perr
	}
	if c.open == nil {
		return nil, errf(ErrUnsupported, path, n,
			"trace references need a file-based loader (LoadScenarioFile or splayctl); inline documents cannot reach %q", ref)
	}
	raw, err := c.open(ref)
	if err != nil {
		return nil, errf(ErrBadValue, path, n, "trace %q: %v", ref, err)
	}
	tr, err := churn.ReadTrace(strings.NewReader(string(raw)))
	if err != nil {
		return nil, errf(ErrBadValue, path, n, "trace %q: %v", ref, err)
	}
	return tr, nil
}

func faultPlan(n *node, path string) (*faults.Plan, *Error) {
	plan := &faults.Plan{}
	perr := bind(n, path, "faults", []field{
		{key: "events", conv: func(n *node, path string) *Error {
			return eachItem(n, path, func(n *node, path string) *Error {
				ev, perr := faultEvent(n, path)
				plan.Events = append(plan.Events, ev)
				return perr
			})
		}},
		{key: "rules", conv: func(n *node, path string) *Error {
			return eachItem(n, path, func(n *node, path string) *Error {
				r, perr := faultRule(n, path)
				plan.Rules = append(plan.Rules, r)
				return perr
			})
		}},
		{key: "eval_every", kind: apps.KindDuration, dst: &plan.EvalEvery},
	})
	if perr != nil {
		return nil, perr
	}
	if plan.Empty() && plan.EvalEvery == 0 {
		return nil, errf(ErrMissing, path, n, "faults declares no events and no rules")
	}
	return plan, nil
}

func faultEvent(n *node, path string) (faults.Event, *Error) {
	var ev faults.Event
	perr := bind(n, path, "each event", []field{
		{key: "at", required: "event time required", kind: apps.KindDuration, dst: &ev.At},
		{key: "kind", required: "event kind required (" + faults.EventKinds.String() + ")", conv: func(n *node, path string) (perr *Error) {
			ev.Kind, perr = oneLine(n, path, faults.EventKinds.Parse)
			return perr
		}},
		{key: "fraction", kind: apps.KindFraction, dst: &ev.Fraction},
		{key: "count", kind: apps.KindInt, dst: &ev.Count, bound: &bound{1, math.Inf(1), "count must be positive"}},
		{key: "extra_latency", kind: apps.KindDuration, dst: &ev.ExtraLatency},
		{key: "loss", kind: apps.KindFraction, dst: &ev.Loss},
		{key: "method", kind: apps.KindString, dst: &ev.Method},
		{key: "drop", kind: apps.KindFraction, dst: &ev.Drop},
		{key: "delay", kind: apps.KindDuration, dst: &ev.Delay},
	})
	if perr != nil {
		return ev, perr
	}
	return ev, faultErr(ev.Validate(), path, n)
}

func faultRule(n *node, path string) (faults.Rule, *Error) {
	var r faults.Rule
	perr := bind(n, path, "each rule", []field{
		{key: "name", required: "rule name required", kind: apps.KindString, dst: &r.Name},
		{key: "when", required: `rule condition required, e.g. "total(chord.failed_lookups) > 10"`,
			conv: func(n *node, path string) (perr *Error) {
				r.When, perr = oneLine(n, path, faults.ParseCondition)
				return perr
			}},
		{key: "for", kind: apps.KindDuration, dst: &r.For},
		{key: "do", before: "for", required: "rule action required (" + faults.ActionForms + ")",
			conv: func(n *node, path string) (perr *Error) {
				r.Do, perr = oneLine(n, path, faults.ParseAction)
				return perr
			}},
		{key: "cooldown", kind: apps.KindDuration, dst: &r.Cooldown},
		{key: "max_fires", kind: apps.KindInt, dst: &r.MaxFires, bound: &bound{0, math.Inf(1), "max_fires must be non-negative"}},
	})
	return r, perr
}

func assertion(n *node, path string) (faults.Assertion, *Error) {
	var a faults.Assertion
	kinds := 0
	cond := func(kind faults.AssertKind) field {
		return field{key: kind.String(), conv: func(n *node, path string) (perr *Error) {
			kinds++
			a.Kind = kind
			a.Cond, perr = oneLine(n, path, faults.ParseCondition)
			return perr
		}}
	}
	perr := bind(n, path, "each assertion", []field{
		{key: "name", required: "assertion name required", kind: apps.KindString, dst: &a.Name},
		cond(faults.Eventually), cond(faults.Always), cond(faults.Converges),
		{conv: func(n *node, path string) *Error {
			switch {
			case kinds == 0:
				return errf(ErrMissing, path, n, "want one of %s with a condition", faults.AssertKinds)
			case kinds > 1:
				return errf(ErrBadValue, path, n, "want exactly one of %s", faults.AssertKinds)
			}
			return nil
		}},
		{key: "within", kind: apps.KindDuration, dst: &a.Within},
		{key: "after", kind: apps.KindDuration, dst: &a.After},
	})
	return a, perr
}

// oneLine reads a scalar in the fault language's one-line syntax: an
// event kind, a condition or an action.
func oneLine[T any](n *node, path string, parse func(string) (T, error)) (v T, perr *Error) {
	s, perr := asString(n, path)
	if perr == nil {
		v, err := parse(s)
		return v, faultErr(err, path, n)
	}
	return v, perr
}

// faultErr positions a fault-language error at n, its field below path:
// the language's error classes are this package's codes.
func faultErr(err error, path string, n *node) *Error {
	if err == nil {
		return nil
	}
	pe := faults.Within(path, err).(*faults.PlanError)
	return errf(ErrorCode(pe.Class.String()), pe.Field, n, "%s", pe.Msg)
}

// ValidateWire validates a decoded wire scenario's application
// references against the catalog — the hosting plane's admission check
// for plain JSON submissions. It reads only the apps array; structural
// validation of the rest belongs to wire.Decode and the submission
// reader.
func ValidateWire(w *wire.Scenario, cat *Catalog) *Error {
	if cat == nil {
		cat = builtinCatalog
	}
	for i, a := range w.Apps {
		path := fmt.Sprintf("apps[%d]", i)
		if a.App == "" {
			return &Error{Code: ErrMissing, Path: path + ".app", Msg: "application name required"}
		}
		if perr := cat.validateParamsJSON(a.App, a.Params, path); perr != nil {
			return perr
		}
	}
	return nil
}
