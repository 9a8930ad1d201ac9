package archtest

import (
	"go/ast"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// A rule is one architecture decision held as a check over the module:
// since names the change that set it, why the reason it holds. fixture
// maps paths to sources (Go, or a document) on which the check must fire
// in every file.
type rule struct {
	name, since, why string
	check            func(m *module) []string
	fixture          map[string]string
}

var rules = []rule{
	{"logging-has-no-network-half", "One log path", "records stay in the process: a session's sink or splayd's stdout",
		only(where(importOf, func(f *file, x fact) bool {
			return f.dir == "internal/logging" && !f.test && in(x.name, "internal/llenc", "internal/transport")
		})),
		fx("internal/logging/x.go", "package logging\nimport _ \"github.com/splaykit/splay/internal/transport\"")},
	{"simbed-imported-by-the-root-and-experiments", "One simulated substrate", "a simulated bed is built by startSim or an experiment harness",
		only(where(importOf, func(f *file, x fact) bool { return !f.test && f.dir != "." && x.name == "internal/simbed" }), "internal/experiments/"),
		fx("internal/hosting/x.go", "package hosting\nimport _ \"github.com/splaykit/splay/internal/simbed\"")},
	{"one-mux", "One resident service, one HTTP surface", "the only HTTP surface is hosting's handler",
		exactly(callsTo("net/http", "NewServeMux"), "internal/hosting/http.go"),
		fx("internal/rpc/x.go", "package rpc\nimport web \"net/http\"\nvar _ = web.NewServeMux()")},
	{"one-server", "One resident service, one HTTP surface", "only splayd serves the platform",
		exactly(union(callsTo("net/http", "ListenAndServe", "ListenAndServeTLS"),
			where(callOf, func(f *file, x fact) bool { return x.method && strings.HasPrefix(x.name, "ListenAndServe") }),
			where(compositeOf, func(f *file, x fact) bool { return x.is("net/http", "Server") })), "cmd/splayd/main.go"),
		fx("scenario_x.go", "package splay\nimport . \"net/http\"\nvar _ = &Server{}")},
	{"no-untyped-http-errors", "One resident service, one HTTP surface", "a route answers a failure with a typed error, never an http.Error string",
		only(callsTo("net/http", "Error")),
		fx("internal/hosting/x.go", "package hosting\nimport \"net/http\"\nfunc f(w http.ResponseWriter) { http.Error(w, \"no\", 500) }")},
	{"controllers-are-sessions-or-splayd", "One resident service, one HTTP surface", "a controller runs inside a session or splayd -host",
		only(callsTo("internal/controller", "New"), "scenario.go", "cmd/splayd/main.go"),
		fx("cmd/splayctl/x.go", "package main\nimport ctl \"github.com/splaykit/splay/internal/controller\"\nvar _ = ctl.New(nil)")},
	{"one-simulated-start", "One simulated substrate", "the SDK root builds its simulated bed once, in startSim, churn included",
		count(where(callOf, func(f *file, x fact) bool { return f.dir == "." && x.is("internal/simbed", "New") }), 1, 1),
		fx("churn_x.go", "package splay\nimport \"github.com/splaykit/splay/internal/simbed\"\nvar _ = simbed.New()")},
	{"one-simulated-substrate", "One simulated substrate", "kernel, network and runtimes are assembled only in internal/simbed",
		only(union(callsTo("internal/core", "NewSimRuntime"), callsTo("internal/sim", "NewKernel", "NewParKernel"),
			callsTo("internal/simnet", "New", "NewPartitioned", "NewPlaced")), "internal/simbed/", "internal/sim/", "internal/simnet/"),
		fx("internal/experiments/x.go", "package experiments\nimport \"github.com/splaykit/splay/internal/sim\"\nvar _ = sim.NewKernel()")},
	{"reporters-dialed-by-the-context", "One instance context", "an instance's collect target is granted on core.AppContext",
		only(callsTo("internal/metrics", "DialReporter"), "internal/core/"),
		fx("internal/apps/x.go", "package apps\nimport m \"github.com/splaykit/splay/internal/metrics\"\nvar _ = m.DialReporter()")},
	{"one-reporter-loop", "One fault vocabulary", "a session and splayd run the one process-level report loop",
		exactly(callsTo("internal/metrics", "Stream"), "cmd/splayd/main.go", "scenario.go"),
		fx("internal/daemon/x.go", "package daemon\nimport \"github.com/splaykit/splay/internal/metrics\"\nvar _ = metrics.Stream()")},
	{"one-socket-decorator", "One instance context", "only the context wraps a node; the daemon grants like every other host",
		exactly(callsTo("internal/sandbox", "Wrap"), "internal/core/grant.go"),
		fx("internal/daemon/x.go", "package daemon\nimport \"github.com/splaykit/splay/internal/sandbox\"\nvar _ = sandbox.Wrap()")},
	{"one-stream-idiom", "One stream idiom", "run-time draws come from internal/stream; only construction-time generators seed math/rand",
		only(callsTo("math/rand", "NewSource"), "internal/stream/", "internal/topology/", "internal/churn/", "internal/workload/", "internal/hostmodel/"),
		fx("internal/rpc/x.go", "package rpc\nimport r \"math/rand\"\nvar _ = r.NewSource(1)")},
	{"one-accept-loop", "One frame reader", "outside the transports only transport.Serve (and the trees app, which tab1 pins) accepts",
		only(where(callOf, func(f *file, x fact) bool { return x.method && x.name == "Accept" && len(x.args) == 0 }),
			"internal/sandbox/", "internal/simnet/", "internal/livenet/", "internal/transport/transport.go", "internal/protocols/trees/"),
		fx("internal/rpc/x.go", "package rpc\nfunc f(l interface{ Accept() }) { l.Accept() }")},
	{"framed-protocols-are-sinks", "One frame reader", "rpc, control sessions, the daemon and the aggregator read through llenc.FrameReader",
		only(where(callOf, func(f *file, x fact) bool {
			return x.name == "ReadMessage" && in(f.path, "internal/controller/", "internal/daemon/", "internal/metrics/", "internal/rpc/")
		})),
		fx("internal/metrics/x.go", "package metrics\nfunc f(r interface{ ReadMessage() }) { r.ReadMessage() }")},
	{"one-fleet-collector", "One way to wait on the fleet", "every command round waits in gather; no task parks on a waiter per command",
		count(where(callOf, func(f *file, x fact) bool {
			return f.path == "internal/controller/controller.go" && x.name == "NewWaiter"
		}), 1, 1),
		fx("internal/controller/controller.go", "package controller\nfunc f(rt interface{ NewWaiter() }) { rt.NewWaiter(); rt.NewWaiter() }")},
	{"one-object-loop", "One object walker for every hand-rolled parser", "llenc's Lexer.Object and Lexer.Array alone open a brace or a bracket",
		only(where(callOf, func(f *file, x fact) bool {
			if !x.method || x.name != "Consume" || len(x.args) != 1 {
				return false
			}
			b, ok := x.args[0].(*ast.BasicLit)
			return ok && b.Kind == token.CHAR && in(b.Value, `'{'`, `'['`)
		}), "internal/llenc/"),
		fx("internal/ctlproto/x.go", "package ctlproto\nfunc f(lx interface{ Consume(byte) }) { lx.Consume('[') }")},
	{"one-value-codec", "One value codec", "values ride llenc's derived plans; rpc's request frame is the one hand-written codec",
		func(m *module) []string {
			codec := func(f *file, x fact) bool {
				return !f.test && x.recv != "" && in(x.name, "AppendJSON", "WalkJSON", "ParseJSON", "MarshalJSON", "UnmarshalJSON")
			}
			request := func(f *file, x fact) bool {
				return f.path == "internal/rpc/fast.go" && x.recv == "request" && x.name == "AppendJSON"
			}
			return append(only(where(declOf, func(f *file, x fact) bool { return codec(f, x) && !request(f, x) }))(m),
				count(where(declOf, request), 1, 1)(m)...)
		},
		fx("internal/transport/x.go", "package transport\nfunc (a Addr) MarshalJSON() ([]byte, error) { return nil, nil }")},
	{"deleted-declarations-stay-deleted",
		"One timer idiom; One way to wait on the fleet; Declare each scenario-document key once; One stream idiom; One simulated start path; Observed runs on the parallel kernel; One release rule",
		"each was folded into the one definition that replaced it",
		only(union(where(declOf, gone), where(ifaceOf, gone))),
		fx("internal/sim/x.go", "package sim\nfunc (k *Kernel) After() {}",
			"internal/sim/y.go", "package sim\nfunc (k *Kernel) drainTaskPool() {}",
			"internal/controller/x.go", "package controller\nfunc (c *Controller) phase() {}",
			"internal/config/x.go", "package config\nfunc requireKeys() {}",
			"internal/core/x.go", "package core\ntype Runtime interface{ Rand() }",
			"scenario_x.go", "package splay\nfunc startSimChurn() {}",
			"internal/simnet/x_test.go", "package simnet\nfunc (n *Network) assertUnpartitioned() {}")},
	{"no-socket-wrappers", "One socket decorator", "a wrapper embedding a socket hides simnet's event interfaces; internal/sandbox passes them through",
		only(where(embedOf, func(f *file, x fact) bool {
			return x.is("internal/transport", "Conn", "Listener", "PacketConn", "EventConn", "EventListener")
		}), "internal/sandbox/"),
		fx("internal/rpc/x.go", "package rpc\nimport tr \"github.com/splaykit/splay/internal/transport\"\ntype meter struct{ tr.Conn }")},
	{"event-capability-asked-in-three-places", "One frame reader", "only the decorator that passes it through and the two pickers ask for it",
		only(where(assertOf, func(f *file, x fact) bool { return in(x.name, "EventConn", "EventListener", "eventSource") }),
			"internal/sandbox/", "internal/llenc/framereader.go", "internal/transport/transport.go"),
		fx("internal/rpc/x.go", "package rpc\nimport \"github.com/splaykit/splay/internal/transport\"\nfunc f(c any) { switch c.(type) { case transport.EventConn: } }")},
	{"fault-hook-set-by-rpc", "One instance context", "only rpc.NewClient sets a client's fault hook, from the instance's grant",
		only(where(assignOf, func(f *file, x fact) bool { return x.name == "Fault" }), "internal/rpc/"),
		fx("internal/apps/x.go", "package apps\nfunc f(c *struct{ Fault any }) { c.Fault = nil }")},
	{"one-fault-vocabulary", "One fault vocabulary", "each fault name is a literal once, in its internal/faults table; every other door reads it there",
		func(m *module) (bad []string) {
			// Names that are also ordinary words elsewhere (total, rate, gauge,
			// mean, p50, p90, nodes, kill) are left out.
			for _, w := range []string{"crash", "restart", "partition", "heal", "degrade", "restore", "rpc-fault",
				"rpc-clear", "grow", "inject", "p99", "eventually", "always", "converges"} {
				bad = append(bad, only(spelled(w), "internal/faults/")(m)...)
				bad = append(bad, count(within(spelled(w), "internal/faults/"), 1, 1)(m)...)
			}
			return bad
		},
		fx("internal/config/x.go", "package config\nconst kind = \"crash\"")},
	{"config-keys-declared-once", "Declare each scenario-document key once", "a key is the field-table entry that both allows and converts it",
		func(m *module) (bad []string) {
			for _, k := range []string{"register_timeout", "max_open_files", "extra_latency", "eval_every", "report_every", "full_list"} {
				bad = append(bad, count(within(spelled(k), "internal/config/"), 0, 1)(m)...)
			}
			return bad
		},
		fx("internal/config/x.go", "package config\nvar allowed = []string{`\"eval_every\"`}")},
	{"address-rides-its-plan", "Steady state without encoding/json", "transport.Addr's wire form comes from its json tags, never spelled by hand",
		only(where(literal, func(f *file, x fact) bool { return strings.Contains(x.name, `"host":"`) })),
		fx("internal/rpc/x.go", "package rpc\nconst addr = \"{\\\"host\\\":\\\"\"")},
	{"one-wire-schema", "Options only their defaults fill become constants", "a duration crosses the wire as one tagged member of internal/wire",
		exactly(where(literal, func(f *file, x fact) bool { return strings.Contains(x.name, `json:"duration_ns`) }), "internal/wire/wire.go"),
		fx("internal/hosting/x.go", "package hosting\ntype job struct{ D int64 `json:\"duration_ns\"` }")},
	{"retired-names-stay-gone", "One definition per concept; One instance context; One way to wait on the fleet",
		"no deprecated facade, no observer bridge, no second drop knob, no options only their defaults fill",
		only(union(mentions("Deprecated:", "splay.go"), mentions("DropRate", ""), mentions("Observer", "internal/apps/", "cmd/splayd/"),
			mentions("DefaultSuperset", "internal/controller/"), mentions("UnseenAfter", "internal/controller/"), mentions("DeployRetries", "internal/controller/"))),
		fx("internal/rpc/x.go", "package rpc\n// DropRate is a second drop knob.\nvar DropRate float64")},
	{"planes-never-force-one-partition", "Observed runs on the parallel kernel", "metrics, faults, assertions and logs are partition-aware; only churn keeps one partition",
		func(m *module) (guards []string) {
			for _, f := range m.files {
				ast.Inspect(f.ast, func(x ast.Node) bool {
					s, ok := x.(*ast.IfStmt)
					if ok && f.dir == "." && !f.test && s.Init != nil && strings.Contains(f.src[s.Init.Pos()-f.ast.FileStart:s.Init.End()-f.ast.FileStart], "autoParts(") {
						var names []string
						ast.Inspect(s.Cond, func(x ast.Node) bool {
							if id, ok := x.(*ast.Ident); ok {
								names = append(names, id.Name)
							}
							return true
						})
						guards = append(guards, m.fset.Position(s.Pos()).String()+": the single-partition predicate reads "+strings.Join(names, ", "))
					}
					return f.dir == "." && !f.test
				})
			}
			if len(guards) == 1 && strings.HasSuffix(guards[0], " reads p, churned") {
				return nil
			}
			return append(guards, "scenario.go: want one if guarding autoParts(total), reading p and churned")
		},
		fx("scenario.go", "package splay\nfunc f(total int, churned, logs bool) { if p := autoParts(total); p > 1 && !churned && !logs {} }")},
	{"retired-paths-stay-absent", "One resident service; Dead connections cost zero bytes; One frame reader; One fault vocabulary; Architecture rules are one Go test; Nothing the product cannot reach",
		"folded into splayd, GC-managed connections, llenc's reader, internal/faults and internal/experiments, or deleted as unreached",
		func(m *module) (bad []string) {
			retired := []string{"cmd/splay", "cmd/splay/", "internal/arena", "internal/arena/", "internal/config/cond.go",
				"internal/rpc/eventloop.go", "experiments", "experiments/", "internal/protocols/scribe", "internal/protocols/scribe/",
				"internal/protocols/splitstream", "internal/protocols/splitstream/"}
			for p := range m.paths {
				if in(p, retired...) {
					bad = append(bad, p+": exists")
				}
			}
			return append(bad, only(where(importOf, func(f *file, x fact) bool { return in(x.name, retired...) }))(m)...)
		},
		fx("experiments/experiments.go", "package experiments",
			"internal/simnet/x_test.go", "package simnet\nimport _ \"github.com/splaykit/splay/internal/arena\"")},
	{"every-package-is-reached", "Nothing the product cannot reach", "a package that no command, example or the SDK root imports, nor a reached package's test, is dead code",
		func(m *module) (bad []string) {
			imports := map[string][]string{} // package dir → what its files import: a reached package's tests reach too
			var todo []string                // the roots: commands, examples and the SDK root
			for _, f := range m.files {
				if !f.test && (f.dir == "." || f.ast.Name.Name == "main") {
					todo = append(todo, f.dir)
				}
				for _, x := range f.facts {
					if x.kind == importOf {
						imports[f.dir] = append(imports[f.dir], x.name)
					}
				}
			}
			reached := map[string]bool{}
			for len(todo) > 0 {
				p := todo[len(todo)-1]
				todo = todo[:len(todo)-1]
				if !reached[p] {
					reached[p] = true
					todo = append(todo, imports[p]...)
				}
			}
			for _, f := range m.files {
				if !f.test && !reached[f.dir] {
					bad = append(bad, m.fset.Position(f.ast.Package).String()+": package "+f.dir+" is reached by no command, example, the SDK root or a reached package's test")
				}
			}
			return bad
		},
		fx("internal/orphan/orphan.go", "package orphan\nimport _ \"github.com/splaykit/splay/internal/sim\"")},
	{"built-in-apps-hold-no-task", "A resident instance holds no coroutine", "a built-in returns from Run once set up; Kill stops what it left running",
		only(where(callOf, func(f *file, x fact) bool {
			return x.method && x.name == "RunUntilKilled" && in(f.path, "internal/apps/")
		})),
		fx("internal/apps/x.go", "package apps\nfunc f(ctx interface{ RunUntilKilled() }) { ctx.RunUntilKilled() }")},
	{"documents-name-real-tests", "Architecture rules are one Go test", "an invariant, a CI line or a verify step naming a missing test checks nothing",
		func(m *module) (bad []string) {
			var defined []string
			for _, s := range where(declOf, func(f *file, x fact) bool { return f.test && x.recv == "" })(m) {
				defined = append(defined, s.x.name)
			}
			for path, text := range m.docs {
				if path == "DESIGN.md" { // its invariants, up to the next section
					_, text, _ = strings.Cut(text, "## Invariants to preserve")
					text, _, _ = strings.Cut(text, "\n## ")
				}
				for _, name := range testNames(text) {
					// A -run or -bench pattern is unanchored, so naming a prefix selects too.
					if !slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) }) {
						bad = append(bad, path+": "+name+" is not a test, fuzz target or benchmark of the module")
					}
				}
			}
			return bad
		},
		fx(".github/workflows/ci.yml", "run: go test -run TestNoSuchInvariant ./...")},
}

// TestRules checks every rule against the module, then against the module
// plus the rule's fixture, on which it must fire in every fixture file.
func TestRules(t *testing.T) {
	m := load(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(m) {
				t.Errorf("%s\n\t(rule since %q: %s)", v, r.since, r.why)
			}
			got := r.check(m.with(t, r.fixture))
			for p := range r.fixture {
				fired := false
				for _, v := range got {
					fired = fired || strings.HasPrefix(v, p+":")
				}
				if !fired {
					t.Errorf("the rule does not fire on its fixture %s (reports %q)", p, got)
				}
			}
		})
	}
}

// fx builds a fixture from path, source pairs.
func fx(pairs ...string) map[string]string {
	fixture := map[string]string{}
	for i := 0; i < len(pairs); i += 2 {
		fixture[pairs[i]] = pairs[i+1]
	}
	return fixture
}

// A site is a fact a rule counts, in its file.
type site struct {
	f *file
	x fact
}

// A sites function lists the sites a rule counts.
type sites func(m *module) []site

// where lists the facts of kind k that match; a test file has declarations only.
func where(k kind, match func(f *file, x fact) bool) sites {
	return func(m *module) (ss []site) {
		for _, f := range m.files {
			for _, x := range f.facts {
				if x.kind == k && match(f, x) {
					ss = append(ss, site{f, x})
				}
			}
		}
		return ss
	}
}

// callsTo lists the calls of pkg's names, through whatever import name.
func callsTo(pkg string, names ...string) sites {
	return where(callOf, func(f *file, x fact) bool { return x.is(pkg, names...) })
}

// spelled lists the literals that spell word, as their whole value or
// quoted inside it, once per spelling: escaping cannot hide one.
func spelled(word string) sites {
	return func(m *module) (ss []site) {
		for _, s := range where(literal, func(*file, fact) bool { return true })(m) {
			n := strings.Count(s.x.name, `"`+word+`"`)
			if s.x.name == word {
				n++
			}
			for range n {
				ss = append(ss, s)
			}
		}
		return ss
	}
}

// mentions lists the product files in places ("" for all) whose text
// contains word, comments included, at its first occurrence.
func mentions(word string, places ...string) sites {
	return func(m *module) (ss []site) {
		for _, f := range m.files {
			if i := strings.Index(f.src, word); i >= 0 && !f.test && (places[0] == "" || in(f.path, places...)) {
				ss = append(ss, site{f, fact{pos: f.ast.FileStart + token.Pos(i), name: word}})
			}
		}
		return ss
	}
}

func union(all ...sites) sites {
	return func(m *module) (ss []site) {
		for _, s := range all {
			ss = append(ss, s(m)...)
		}
		return ss
	}
}

func within(s sites, places ...string) sites {
	return func(m *module) (ss []site) {
		for _, x := range s(m) {
			if in(x.f.path, places...) {
				ss = append(ss, x)
			}
		}
		return ss
	}
}

// only fails every site outside places; with no places, every site.
func only(s sites, places ...string) func(m *module) []string {
	return func(m *module) (bad []string) {
		for _, x := range s(m) {
			if !in(x.f.path, places...) {
				bad = append(bad, m.fset.Position(x.x.pos).String())
			}
		}
		return bad
	}
}

// exactly fails a site outside files and a file without one.
func exactly(s sites, files ...string) func(m *module) []string {
	return func(m *module) []string {
		bad := only(s, files...)(m)
		for _, f := range files {
			if len(within(s, f)(m)) == 0 {
				bad = append(bad, f+": missing")
			}
		}
		return bad
	}
}

// count fails every site unless there are between least and most.
func count(s sites, least, most int) func(m *module) []string {
	return func(m *module) (bad []string) {
		ss := s(m)
		if len(ss) < least || len(ss) > most {
			for _, x := range ss {
				bad = append(bad, m.fset.Position(x.x.pos).String()+": one of "+strconv.Itoa(len(ss)))
			}
			if len(ss) == 0 {
				bad = append(bad, "none found")
			}
		}
		return bad
	}
}

// gone matches the declarations folded away: the kernel's closure-returning
// After and its task-pool drain beside the epoch release, the controller's
// own periodic and per-command waits, config's separate key allow-list, a
// runtime's shared random source, the churn start path and the
// single-partition guard.
func gone(f *file, x fact) bool {
	return in(f.path, "internal/sim/") && x.recv == "Kernel" && in(x.name, "After", "drainTaskPool") ||
		in(f.path, "internal/controller/") && x.recv == "Controller" && in(x.name, "periodic", "call", "phase") ||
		in(f.path, "internal/config/") && x.name == "requireKeys" ||
		strings.HasSuffix(x.recv, "Runtime") && x.name == "Rand" ||
		in(x.name, "startSimChurn", "assertUnpartitioned")
}

// testNames lists the words of text that name a test, fuzz target or
// benchmark: Test, Fuzz or Benchmark followed by an upper-case letter.
func testNames(text string) (names []string) {
	for _, w := range strings.FieldsFunc(text, func(r rune) bool { return r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) }) {
		for _, p := range []string{"Test", "Fuzz", "Benchmark"} {
			if rest, ok := strings.CutPrefix(w, p); ok && rest != "" && unicode.IsUpper(rune(rest[0])) {
				names = append(names, w)
			}
		}
	}
	return names
}
