package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	splay "github.com/splaykit/splay"
)

func init() {
	register("configplane", configplane)
	register("gossip", gossip)
}

// exampleDoc reads a checked-in scenario document, located relative to
// this source file so the experiment runs from any working directory.
func exampleDoc(rel string) ([]byte, error) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return nil, fmt.Errorf("cannot locate source tree")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(self)))
	return os.ReadFile(filepath.Join(root, rel))
}

// faultdrillGo is the handwritten-Go twin of
// examples/faultdrill/scenario.yaml: the same experiment an author
// without Go expresses in the document, written against the SDK. The
// configplane experiment pins the two forms byte-identical — on the
// wire and in the run.
func faultdrillGo() splay.Scenario {
	sc := splay.Scenario{
		Name:            "faultdrill",
		Seed:            11,
		Testbed:         splay.ModelNet(60),
		RegisterTimeout: 60 * time.Second,
		Duration:        300 * time.Second,
		Collect: splay.Collect{
			Metrics:     true,
			ReportEvery: 5 * time.Second,
			Key:         "drill",
		},
		Apps: []splay.AppSpec{{
			Name:   "chord",
			Nodes:  48,
			Params: []byte(`{"bits":40,"fault_tolerant":true,"lookups_per_min":6,"report":true}`),
		}},
	}
	sc.Faults, sc.Assert = drillFaults()
	return sc
}

// runFingerprint flattens a run into one comparable string: job states
// and placements plus the aggregated telemetry the run produced.
func runFingerprint(res *splay.Result) string {
	var b bytes.Buffer
	for _, j := range res.Jobs {
		fmt.Fprintf(&b, "job state=%s deployed=%v\n", j.State, j.Deployed)
	}
	if res.Metrics != nil {
		frames, rx := res.Metrics.Received()
		fmt.Fprintf(&b, "nodes=%d frames=%d bytes=%d lookups=%d failed=%d\n",
			res.Metrics.Nodes(), frames, rx,
			res.Metrics.Counter("chord.lookups"), res.Metrics.Counter("chord.failed_lookups"))
	}
	return b.String()
}

// configplane pins DESIGN.md invariant 11 end to end: the checked-in
// faultdrill scenario document compiles to exactly the bytes its
// handwritten Go twin marshals to, and both forms run byte-identically
// — same schedules, same placements, same telemetry. The experiment
// then reports the closed-loop outcome of the documented drill.
//
// The document is a fixed artifact, so Scale is ignored; Seed overrides
// the document's pinned seed on both sides symmetrically.
func configplane(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("configplane")

	doc, err := exampleDoc("examples/faultdrill/scenario.yaml")
	if err != nil {
		return nil, fmt.Errorf("configplane: %w", err)
	}
	wire, err := splay.CompileConfig(doc)
	if err != nil {
		return nil, fmt.Errorf("configplane: %w", err)
	}
	twin := faultdrillGo()
	goWire, err := twin.Marshal()
	if err != nil {
		return nil, fmt.Errorf("configplane: %w", err)
	}
	if !bytes.Equal(wire, goWire) {
		return nil, fmt.Errorf("configplane: document and Go twin diverge on the wire:\n doc %s\n go  %s", wire, goWire)
	}
	fmt.Fprintf(w, "# wire: document == Go twin (%d bytes)\n", len(wire))

	fromDoc, err := splay.LoadScenario(doc)
	if err != nil {
		return nil, fmt.Errorf("configplane: %w", err)
	}
	fromDoc.Seed = opt.Seed
	twin.Seed = opt.Seed

	docRes, err := fromDoc.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("configplane: document run: %w", err)
	}
	goRes, err := twin.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("configplane: twin run: %w", err)
	}
	docFP, goFP := runFingerprint(docRes), runFingerprint(goRes)
	match := docFP == goFP
	fmt.Fprintf(w, "# run: document fingerprint == Go fingerprint: %v\n", match)
	fmt.Fprintf(w, "doc %s", docFP)
	if !match {
		return nil, fmt.Errorf("configplane: runs diverge:\n doc %q\n go  %q", docFP, goFP)
	}
	lookups := docRes.Metrics.Counter("chord.lookups")
	failed := docRes.Metrics.Counter("chord.failed_lookups")
	if failed == 0 {
		return nil, fmt.Errorf("configplane: partition caused no observed lookup failures")
	}

	res.Metrics["wire_bytes"] = float64(len(wire))
	res.Metrics["equal"] = b2f(match)
	res.Metrics["lookups"] = float64(lookups)
	res.Metrics["failed_lookups"] = float64(failed)
	res.Metrics["streams"] = float64(docRes.Metrics.Nodes())
	return res, nil
}

// cyclonGossipGo is the handwritten-Go twin of
// examples/cyclon-gossip/scenario.yaml.
func cyclonGossipGo() splay.Scenario {
	return splay.Scenario{
		Name:     "cyclon-gossip",
		Seed:     11,
		Testbed:  splay.Uniform(30, 10*time.Millisecond, 0),
		Duration: 120 * time.Second,
		Collect: splay.Collect{
			Metrics:     true,
			ReportEvery: 5 * time.Second,
		},
		Apps: []splay.AppSpec{{
			Name:     "cyclon",
			Nodes:    24,
			FullList: true,
			Params:   []byte(`{"report":true,"shuffle_every":5000000000,"shuffle_len":5,"view_size":16}`),
		}},
		Assert: []splay.Assertion{
			splay.EventuallyHolds("gossip-happens",
				splay.Metric("cyclon.shuffles", splay.StatTotal, splay.Above, 200), 0),
		},
	}
}

// gossip is the cyclon built-in's convergence smoke, driven from its
// scenario document: the document must match its Go twin on the wire,
// and the run must show every node gossiping — the aggregate shuffle
// counter past the assertion's bar and the summed view-size gauge near
// the configured capacity (views full ⇒ the overlay mixed).
func gossip(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("gossip")

	doc, err := exampleDoc("examples/cyclon-gossip/scenario.yaml")
	if err != nil {
		return nil, fmt.Errorf("gossip: %w", err)
	}
	wire, err := splay.CompileConfig(doc)
	if err != nil {
		return nil, fmt.Errorf("gossip: %w", err)
	}
	goWire, err := cyclonGossipGo().Marshal()
	if err != nil {
		return nil, fmt.Errorf("gossip: %w", err)
	}
	if !bytes.Equal(wire, goWire) {
		return nil, fmt.Errorf("gossip: document and Go twin diverge on the wire:\n doc %s\n go  %s", wire, goWire)
	}

	sc, err := splay.LoadScenario(doc)
	if err != nil {
		return nil, fmt.Errorf("gossip: %w", err)
	}
	sc.Seed = opt.Seed
	run, err := sc.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("gossip: %w", err)
	}
	shuffles := run.Metrics.Counter("cyclon.shuffles")
	viewSum := run.Metrics.GaugeSum("cyclon.view")
	const nodes, viewSize = 24, 16
	fmt.Fprintf(w, "# %d nodes, view %d, 120s\n", nodes, viewSize)
	fmt.Fprintf(w, "%-16s %8d\n", "shuffles", shuffles)
	fmt.Fprintf(w, "%-16s %8d\n", "view-sum", viewSum)
	fmt.Fprintf(w, "%-16s %8d\n", "streams", run.Metrics.Nodes())
	if viewSum < nodes*viewSize*3/4 {
		return nil, fmt.Errorf("gossip: views did not fill: sum %d < %d", viewSum, nodes*viewSize*3/4)
	}

	res.Metrics["shuffles"] = float64(shuffles)
	res.Metrics["view_sum"] = float64(viewSum)
	res.Metrics["streams"] = float64(run.Metrics.Nodes())
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
