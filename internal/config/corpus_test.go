package config

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/compile_corpus.golden from the current compiler")

const corpusGolden = "testdata/compile_corpus.golden"

// TestCompileCorpus pins what the compiler makes of every document this
// package's tables and fuzz corpora hold, and of systematic mutations of
// the full document, the example scenarios and two documents covering
// the sections those leave out: each line deleted, each value replaced,
// an unknown key added under each mapping. One golden line per case
// holds the wire bytes' digest or the complete error text (code, path,
// position, message), so a rewrite of the compiler must reproduce every
// byte and every rejection, including which error a document with
// several reports first. Regenerate only for an intended schema change:
//
//	go test ./internal/config -run TestCompileCorpus -update
func TestCompileCorpus(t *testing.T) {
	var b strings.Builder
	seen := make(map[string]bool)
	for _, c := range corpusCases(t) {
		if seen[c.name] {
			t.Fatalf("duplicate corpus case %q", c.name)
		}
		seen[c.name] = true
		fmt.Fprintf(&b, "%s\t%s\n", strconv.Quote(c.name), compileOutcome(c.doc))
	}
	got := b.String()
	if *updateCorpus {
		if err := os.WriteFile(corpusGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("corpus line %d differs\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("corpus has %d lines, golden %d", len(gl), len(wl))
}

type corpusCase struct{ name, doc string }

// corpusOpen serves the one trace the corpus documents reference.
func corpusOpen(path string) ([]byte, error) {
	if path != "nodes.trace" {
		return nil, fmt.Errorf("no trace %q", path)
	}
	return []byte("0.5 join 1\n1.5 join 2\n2.5 leave 1\n"), nil
}

func compileOutcome(doc string) string {
	out, perr := Compile([]byte(doc), Options{Open: corpusOpen})
	if perr != nil {
		return "error " + strconv.Quote(perr.Error())
	}
	return fmt.Sprintf("wire sha256=%x len=%d", sha256.Sum256(out), len(out))
}

// corpusExtraDocs cover what fullDoc and the examples leave out: churn
// scripts and traces, every fault event field, rule actions and the
// always assertion.
var corpusExtraDocs = []corpusCase{
	{"extra/sections", `seed: 9
testbed:
  kind: planetlab
  daemons: 50
apps:
  - app: cyclon
    env:
      caps: all
      net:
        max_sockets: 3
        max_rx: 4MB
  - app: bittorrent
    params:
      size: 4MB
      piece_size: 64KB
churn:
  seed: 4
  script:
    - at 30s join 10
    - at 60s leave 5
faults:
  events:
    - at: 1s
      kind: crash
      count: 2
    - at: 2s
      kind: rpc-fault
      method: find_successor
      drop: 10%
      delay: 5ms
  rules:
    - name: grow
      when: nodes() < 5
      do: grow 3
      max_fires: 1
    - name: cull
      when: p99(chord.lookup_latency_ns) > 2000000000
      do: kill 50%
      cooldown: 1m
assert:
  - name: stays
    always: nodes() > 1
    within: 1m
    after: 10s
`},
	{"extra/trace", `testbed:
  kind: uniform
  daemons: 10
  bps: 10mbps
apps:
  - app: chord
churn:
  trace: nodes.trace
`},
}

// corpusOrderDocs carry two errors each, one behind every point where
// the compiler's evaluation order is not its sections' key order, so the
// golden pins which one is reported.
var corpusOrderDocs = []corpusCase{
	{"order/collect before churn", appPrefix + "churn:\n  script: garbage\ncollect:\n  metrics: maybe\n"},
	{"order/report check before churn", "apps:\n  - app: chord\n    params:\n      report: true\nchurn:\n  script: garbage\n"},
	{"order/churn source before seed", appPrefix + "churn:\n  seed: x\n  script: at 1s join 1\n  trace: nodes.trace\n"},
	{"order/churn seed before script", appPrefix + "churn:\n  script: garbage\n  seed: x\n"},
	{"order/rule do before for", appPrefix + "faults:\n  rules:\n    - name: r\n      when: nodes() < 5\n      for: x\n      do: explode\n"},
	{"order/rule missing do before for", appPrefix + "faults:\n  rules:\n    - name: r\n      when: nodes() < 5\n      for: x\n"},
	{"order/assert kinds before within", appPrefix + "assert:\n  - name: a\n    within: x\n    always: nodes() > 1\n    eventually: nodes() > 1\n"},
	{"order/assert no kind before within", appPrefix + "assert:\n  - name: a\n    within: x\n"},
	{"order/assert conditions in key order", appPrefix + "assert:\n  - name: a\n    converges: bad\n    always: worse\n"},
	{"order/testbed kind before daemons", "testbed:\n  daemons: x\n  kind: mars\n" + appPrefix},
	{"order/testbed rtt after daemons", "testbed:\n  rtt: 1s\n  kind: live\n  daemons: 0\n" + appPrefix},
	{"order/event kind before crash target", appPrefix + "faults:\n  events:\n    - kind: crash\n      at: x\n"},
	{"order/faults empty after eval_every", appPrefix + "faults:\n  eval_every: x\n"},
	{"order/apps before top-level scalars", "duration: x\napps:\n  - app: quux\n"},
	{"order/unknown key before values", "seed: x\nbogus: 1\n" + appPrefix},
	{"order/env caps before net", appPrefix[:len(appPrefix)-1] + "\n    env:\n      net:\n        max_tx: x\n      caps: none\n"},
}

var (
	corpusValue       = regexp.MustCompile(`^(\s*(?:- )?[A-Za-z0-9_-]+: )(.+)$`)
	corpusReplacement = []string{"x", "-1", "0", "1.5", `"7"`, "[a]"}
)

func corpusCases(t *testing.T) []corpusCase {
	t.Helper()
	var cases []corpusCase
	add := func(name, doc string) { cases = append(cases, corpusCase{name, doc}) }
	for _, c := range compileMinimalCases {
		add("minimal/"+c.name, c.doc)
	}
	for _, c := range compileErrorCases {
		add("errors/"+c.name, c.doc)
	}
	for _, c := range parseErrorCases {
		add("parse/"+c.name, c.doc)
	}
	add("parse/structure", parseStructureDoc)
	add("parse/crlf", crlfDoc)
	for i, doc := range compileSeeds {
		add(fmt.Sprintf("seed/FuzzCompile/%d", i), doc)
	}
	for i, doc := range parseSeeds {
		add(fmt.Sprintf("seed/FuzzParseDoc/%d", i), doc)
	}
	for _, c := range corpusOrderDocs {
		add(c.name, c.doc)
	}
	for _, fuzzer := range []string{"FuzzCompile", "FuzzParseDoc"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzer, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			add("corpus/"+fuzzer+"/"+filepath.Base(f), readFuzzEntry(t, f))
		}
	}

	bases := []corpusCase{{"full", fullDoc}}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "scenario.yaml"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example scenarios (%v)", err)
	}
	for _, f := range examples {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, corpusCase{"examples/" + filepath.Base(filepath.Dir(f)), string(raw)})
	}
	bases = append(bases, corpusExtraDocs...)
	for _, base := range bases {
		add(base.name, base.doc)
		lines := strings.Split(base.doc, "\n")
		for i, ln := range lines {
			if strings.TrimSpace(ln) == "" {
				continue
			}
			add(fmt.Sprintf("%s/del/L%d", base.name, i+1), spliceLines(lines, i, 1))
			if m := corpusValue.FindStringSubmatch(ln); m != nil {
				for _, r := range corpusReplacement {
					add(fmt.Sprintf("%s/val/L%d/%s", base.name, i+1, r), spliceLines(lines, i, 1, m[1]+r))
				}
			}
		}
		root, perr := parseDoc([]byte(base.doc))
		if perr != nil {
			t.Fatalf("%s does not parse: %v", base.name, perr)
		}
		forEachMapping(root, func(n *node) {
			bogus := strings.Repeat(" ", n.col-1) + "bogus: 1"
			add(fmt.Sprintf("%s/bogus/L%d", base.name, n.line), spliceLines(lines, lastLine(n), 0, bogus))
		})
	}
	return cases
}

// spliceLines replaces del lines from i with ins and rejoins the document.
func spliceLines(lines []string, i, del int, ins ...string) string {
	out := append(append(append([]string(nil), lines[:i]...), ins...), lines[i+del:]...)
	return strings.Join(out, "\n")
}

// forEachMapping visits every mapping node in document order.
func forEachMapping(n *node, visit func(*node)) {
	if n.kind == mapNode {
		visit(n)
	}
	for _, e := range n.keys {
		forEachMapping(e.val, visit)
	}
	for _, item := range n.items {
		forEachMapping(item, visit)
	}
}

// lastLine is the last source line a node's subtree occupies (1-based).
func lastLine(n *node) int {
	last := n.line
	for _, e := range n.keys {
		last = max(last, e.keyLine, lastLine(e.val))
	}
	for _, item := range n.items {
		last = max(last, lastLine(item))
	}
	return last
}

// readFuzzEntry decodes a one-value "go test fuzz v1" corpus file.
func readFuzzEntry(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus entry", path)
	}
	lit := lines[1]
	for _, wrap := range []string{"string(", "[]byte("} {
		if strings.HasPrefix(lit, wrap) && strings.HasSuffix(lit, ")") {
			s, err := strconv.Unquote(lit[len(wrap) : len(lit)-1])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return s
		}
	}
	t.Fatalf("%s: unexpected value %s", path, lit)
	return ""
}
