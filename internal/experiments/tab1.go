package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func init() {
	register("tab1", tab1)
}

// tab1 reproduces the §5.1 development-complexity table: lines of code
// for each protocol implemented on SPLAY. The paper counts Lua lines; we
// count non-blank, non-comment Go lines of each protocol package
// (excluding tests and static-build scaffolding, which exist only for
// experiment bootstrapping). The table lists the protocols the product
// runs; substrate reuse mirrors the paper: the web cache sits on Pastry.
func tab1(opt Options) (*Result, error) {
	w := opt.out()
	res := newResult("tab1")
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return nil, fmt.Errorf("tab1: cannot locate source tree")
	}
	protoDir := filepath.Join(filepath.Dir(self), "..", "protocols")

	entries, err := os.ReadDir(protoDir)
	if err != nil {
		return nil, fmt.Errorf("tab1: %w (run from a source checkout)", err)
	}
	fmt.Fprintf(w, "# Table (§5.1) — protocol implementation sizes (Go NCLOC)\n")
	fmt.Fprintf(w, "%-16s %8s   %s\n", "protocol", "ncloc", "substrate")
	substrates := map[string]string{"webcache": "pastry"}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		n, err := countNCLOC(filepath.Join(protoDir, e.Name()))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-16s %8d   %s\n", e.Name(), n, substrates[e.Name()])
		res.Metrics[e.Name()] = float64(n)
	}
	return res, nil
}

// countNCLOC counts non-blank, non-comment lines across a package's
// non-test Go files.
func countNCLOC(dir string) (int, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if name == "build.go" {
			continue // static-build scaffolding: experiment bootstrapping, not protocol
		}
		fh, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(fh)
		inBlock := false
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case inBlock:
				if strings.Contains(line, "*/") {
					inBlock = false
				}
			case line == "" || strings.HasPrefix(line, "//"):
			case strings.HasPrefix(line, "/*"):
				if !strings.Contains(line, "*/") {
					inBlock = true
				}
			default:
				total++
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			return 0, err
		}
	}
	return total, nil
}
