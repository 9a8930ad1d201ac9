// Command splay-churn provides the churn-trace tooling of §5.5: compile
// synthetic descriptions into traces, speed traces up, amplify their
// turnover, and summarize their dynamics.
//
// Usage:
//
//	splay-churn gen -script fig4.churn [-seed 1] > trace.txt
//	splay-churn speedup -factor 10 < trace.txt > fast.txt
//	splay-churn amplify -factor 2 [-seed 1] < trace.txt > heavy.txt
//	splay-churn stats [-bucket 1m] < trace.txt
//	splay-churn overnet [-nodes 620] [-minutes 50] > overnet.txt
//	splay-churn example        # prints the paper's Fig. 4 script
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/splaykit/splay/internal/churn"
	"github.com/splaykit/splay/internal/workload"
)

// errUsage is returned for an unknown subcommand, and for bad flags — which
// the flag package has by then printed, so the usage line is all that is
// left to report.
var errUsage = errors.New("usage: splay-churn gen|speedup|amplify|stats|overnet|example …")

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "splay-churn:", err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run executes one subcommand: traces are read from stdin and written to
// stdout, so the subcommands chain through pipes (and tests).
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "gen":
		return gen(args[1:], stdout)
	case "speedup":
		return speedup(args[1:], stdin, stdout)
	case "amplify":
		return amplify(args[1:], stdin, stdout)
	case "stats":
		return stats(args[1:], stdin, stdout)
	case "overnet":
		return overnet(args[1:], stdout)
	case "example":
		_, err := fmt.Fprintln(stdout, churn.PaperScript)
		return err
	}
	return errUsage
}

func gen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	path := fs.String("script", "", "churn script file (default: the paper's example)")
	seed := fs.Int64("seed", 1, "random seed")
	if fs.Parse(args) != nil {
		return errUsage
	}
	src := churn.PaperScript
	if *path != "" {
		data, err := os.ReadFile(*path)
		if err != nil {
			return err
		}
		src = string(data)
	}
	script, err := churn.ParseScript(src)
	if err != nil {
		return err
	}
	return churn.WriteTrace(stdout, churn.FromScript(script, *seed))
}

func speedup(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("speedup", flag.ContinueOnError)
	factor := fs.Float64("factor", 2, "time compression factor")
	if fs.Parse(args) != nil {
		return errUsage
	}
	tr, err := churn.ReadTrace(stdin)
	if err != nil {
		return err
	}
	return churn.WriteTrace(stdout, tr.SpeedUp(*factor))
}

func amplify(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("amplify", flag.ContinueOnError)
	factor := fs.Float64("factor", 2, "turnover amplification factor (≥1)")
	seed := fs.Int64("seed", 1, "random seed")
	if fs.Parse(args) != nil {
		return errUsage
	}
	tr, err := churn.ReadTrace(stdin)
	if err != nil {
		return err
	}
	return churn.WriteTrace(stdout, tr.Amplify(*factor, *seed))
}

func stats(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	bucket := fs.Duration("bucket", time.Minute, "aggregation window")
	if fs.Parse(args) != nil {
		return errUsage
	}
	tr, err := churn.ReadTrace(stdin)
	if err != nil {
		return err
	}
	pop, joins, leaves := tr.Population(*bucket)
	fmt.Fprintf(stdout, "%-10s %8s %8s %8s\n", "window", "joins", "leaves", "total")
	for i := range pop {
		fmt.Fprintf(stdout, "%-10s %8d %8d %8d\n", time.Duration(i)*(*bucket), joins[i], leaves[i], pop[i])
	}
	_, err = fmt.Fprintf(stdout, "# events=%d duration=%s peak-slot=%d\n", len(tr), tr.Duration(), tr.MaxSlot())
	return err
}

func overnet(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("overnet", flag.ContinueOnError)
	nodes := fs.Int("nodes", 620, "target concurrent population")
	minutes := fs.Int("minutes", 50, "trace length")
	seed := fs.Int64("seed", 12, "random seed")
	if fs.Parse(args) != nil {
		return errUsage
	}
	cfg := workload.DefaultOvernet()
	cfg.Nodes = *nodes
	cfg.Duration = time.Duration(*minutes) * time.Minute
	cfg.Seed = *seed
	return churn.WriteTrace(stdout, workload.OvernetTrace(cfg))
}
