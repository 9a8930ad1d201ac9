package config

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/splaykit/splay/internal/wire"
)

// FuzzCompile drives the whole config plane — parser, unit converters,
// catalog validation, wire emission — with arbitrary documents. The
// invariants: never panic, and either return a typed *Error or emit
// valid JSON that compiles identically a second time (determinism) and
// passes the strict wire decode and re-validation (what Compile emits,
// wire.Decode and ValidateWire admit).
// Seeds live in testdata/fuzz/FuzzCompile; `go test -fuzz=FuzzCompile`
// explores from there.
func FuzzCompile(f *testing.F) {
	for _, doc := range compileSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		out, perr := Compile([]byte(doc), Options{})
		if perr != nil {
			if perr.Code == "" || perr.Msg == "" {
				t.Fatalf("untyped error %+v for %q", perr, doc)
			}
			_ = perr.Error() // rendering must not panic either
			return
		}
		if !json.Valid(out) {
			t.Fatalf("compiled invalid JSON %q from %q", out, doc)
		}
		again, perr := Compile([]byte(doc), Options{})
		if perr != nil || !bytes.Equal(out, again) {
			t.Fatalf("non-deterministic compile of %q: %v", doc, perr)
		}
		w, err := wire.Decode(out)
		if err != nil {
			t.Fatalf("compiled wire fails the strict decode: %v (doc %q, wire %s)", err, doc, out)
		}
		if verr := ValidateWire(w, nil); verr != nil {
			t.Fatalf("compiled wire fails admission: %v (doc %q, wire %s)", verr, doc, out)
		}
	})
}

// FuzzParseDoc fuzzes the parser layer alone: arbitrary bytes must
// produce a tree or a positioned syntax error, never a panic, and every
// error must carry a 1-based position.
func FuzzParseDoc(f *testing.F) {
	for _, doc := range parseSeeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		root, perr := parseDoc(data)
		if perr != nil {
			if perr.Line < 1 || perr.Col < 1 {
				t.Fatalf("unpositioned parse error %+v for %q", perr, data)
			}
			return
		}
		if root == nil || root.kind != mapNode {
			t.Fatalf("nil/odd root without error for %q", data)
		}
	})
}

// compileSeeds and parseSeeds start the two fuzzers; TestCompileCorpus
// pins what the compiler makes of them.
var compileSeeds = []string{
	"apps:\n  - app: chord\n",
	fullDoc,
	"name: demo\napps:\n  - app: cyclon\n    params:\n      view_size: 16\n      shuffle_every: 5s\n",
	"apps:\n  - app: bittorrent\n    params:\n      size: 4MB\n      piece_size: 64KB\n",
	"seed: 3\napps:\n  - app: chord\nchurn:\n  script: at 30s join 10\n",
	"apps:\n  - app: chord\n    env:\n      caps: [net, fs]\n      net:\n        max_tx: 1MB\n",
	"apps:\n  - app: chord\nfaults:\n  events:\n    - at: 1s\n      kind: partition\n      fraction: 50%\n",
	"apps:\n  - app: chord\nassert:\n  - name: a\n    eventually: nodes() > 1\n",
	"a: [x, y, \"z\"]\nb: 'quoted'\n",
	"---\nbad: doc",
	"\tbad",
	"apps: {flow: map}",
}

var parseSeeds = []string{
	"a: 1\nb:\n  - x\n  - y\n",
	"k: \"esc\\\"aped\"\n",
	"k: 'it''s'\n",
	"k: [a, b,c ]\n",
	"# only\n\n# comments",
	"a:\n  b:\n    c: deep\n",
	"\xff\xfe: \x00",
}
