package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the bench itself reads:
// the end-to-end metrics with their regression bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// loadBenchmark reads BENCHMARK.json from path, or from the working
// directory and its parent (the repository root when run from bench/).
func loadBenchmark(path string) (*benchmarkFile, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, fmt.Errorf("bench: no BENCHMARK.json: %w", lastErr)
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &set, nil
}

// values collects one metric's values over a set's runs of a workload.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// workloadNames lists the set's workloads in first-seen order.
func (s *resultSet) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// printMedians prints a set's per-workload medians and spreads.
func printMedians(w io.Writer, set *resultSet, defs []metricDef) {
	fmt.Fprintf(w, "\n%-16s %-28s %16s %-8s %4s %9s\n", "workload", "metric", "median", "unit", "n", "spread")
	for _, name := range set.workloadNames() {
		for _, d := range defs {
			vals := set.values(name, d.Name)
			if len(vals) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-16s %-28s %16.4f %-8s %4d %8.2f%%\n", name, d.Name, median(vals), d.Unit, len(vals), spread(vals)*100)
		}
	}
}

// Verdicts of one workload × metric pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares medians a → b of one metric under its bound. A pair
// whose run-to-run spread (interquartile distance over median, either
// side) is wider than the bound cannot tell a regression from noise: it
// is unresolved, not ok.
func judge(better string, bound float64, a, b []float64) (delta float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / math.Abs(ma)
	}
	worse := delta > bound
	if better == "higher" {
		worse = -delta > bound
	}
	switch {
	case worse:
		return delta, verdictWorse
	case spread(a) > bound || spread(b) > bound:
		return delta, verdictUnresolved
	}
	return delta, verdictOK
}

// compareSets prints the per workload × metric table of two result sets
// of the same commit or of a parent and its change, and checks that the
// runs both sets made with the same seed agree exactly where they must:
// sim_digest and the virtual-clock metrics.
func compareSets(pathA, pathB, benchmarkPath string, w io.Writer) int {
	a, err := loadSet(pathA)
	if err != nil {
		return report(err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		return report(err)
	}
	bf, err := loadBenchmark(benchmarkPath)
	if err != nil {
		return report(err)
	}

	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "median a", "median b", "delta", "bound", "spread a", "spread b", "verdict")
	for _, name := range a.workloadNames() {
		for _, m := range bf.EndToEnd {
			va, vb := a.values(name, m.Name), b.values(name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, verdict := judge(m.Better, m.Bound, va, vb)
			counts[verdict]++
			fmt.Fprintf(w, "%-16s %-16s %14.4f %14.4f %+7.2f%% %6.1f%% %7.2f%% %7.2f%%  %s\n",
				name, m.Name, median(va), median(vb), delta*100, m.Bound*100, spread(va)*100, spread(vb)*100, verdict)
		}
	}

	// Exact agreement, seed by seed.
	type key struct {
		workload string
		seed     int64
	}
	byKey := map[key]runRecord{}
	for _, r := range a.Runs {
		byKey[key{r.Workload, r.Seed}] = r
	}
	var mismatches []string
	paired := 0
	for _, rb := range b.Runs {
		ra, ok := byKey[key{rb.Workload, rb.Seed}]
		if !ok || ra.Seconds != rb.Seconds || ra.Scale != rb.Scale {
			continue
		}
		paired++
		if ra.Digest != rb.Digest {
			mismatches = append(mismatches, fmt.Sprintf("%s seed %d: sim_digest %s vs %s", rb.Workload, rb.Seed, ra.Digest, rb.Digest))
		}
		for name := range exactRepeat {
			if ra.Metrics[name] != rb.Metrics[name] {
				mismatches = append(mismatches, fmt.Sprintf("%s seed %d: %s %v vs %v", rb.Workload, rb.Seed, name, ra.Metrics[name], rb.Metrics[name]))
			}
		}
	}
	sort.Strings(mismatches)
	fmt.Fprintf(w, "\n%d ok, %d worse, %d unresolved; %d same-seed pairs, %d exact-repeat mismatches\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved], paired, len(mismatches))
	for _, m := range mismatches {
		fmt.Fprintf(w, "MISMATCH: %s\n", m)
	}
	switch {
	case len(mismatches) > 0:
		return exitDigest
	case counts[verdictWorse] > 0:
		return exitIncorrect
	}
	return exitOK
}
