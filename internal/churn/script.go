// Package churn implements SPLAY's churn manager (§3.2): reproducing the
// dynamics of a distributed system from real traces or synthetic
// descriptions, deterministically, so competing protocols face the very
// same arrival/departure sequence.
//
// A synthetic description is a small script (Fig. 4):
//
//	at 30s join 10
//	from 5m to 10m inc 10
//	from 10m to 15m const churn 50%
//	at 15m leave 50%
//	from 15m to 20m inc 10 churn 150%
//	at 20m stop
//
// Scripts compile to a Trace — an explicit timeline of join/leave events
// against numbered node slots — which the executor replays through a
// start and a stop callback. Traces can also be loaded directly, sped up,
// or amplified (§5.5's tooling).
package churn

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Phase is one parsed script line.
type Phase struct {
	From, To time.Duration // To == From for instantaneous "at" lines

	// Instant actions ("at"):
	JoinN    int     // join N nodes
	LeaveN   int     // leave N nodes
	LeavePct float64 // leave a fraction of the population (0 disables)
	Stop     bool    // everyone leaves

	// Interval actions ("from … to …"):
	IncN     int     // population delta over the interval (may be negative)
	Const    bool    // population held constant
	ChurnPct float64 // extra turnover: this fraction of the average
	// population leaves and is replaced over the interval
}

// Script is a parsed churn description.
type Script struct {
	Phases []Phase
}

// ParseScript parses the synthetic description language. Durations accept
// Go-style suffixes (30s, 5m, 1h); bare numbers are seconds. Percentages
// carry a trailing '%'.
func ParseScript(src string) (*Script, error) {
	var s Script
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(strings.ToLower(line))
		p, err := parseLine(fields)
		if err != nil {
			return nil, fmt.Errorf("churn: line %d (%q): %w", lineNo+1, raw, err)
		}
		s.Phases = append(s.Phases, p)
	}
	if len(s.Phases) == 0 {
		return nil, fmt.Errorf("churn: empty script")
	}
	return &s, nil
}

func parseLine(f []string) (Phase, error) {
	var p Phase
	switch f[0] {
	case "at":
		if len(f) < 3 {
			return p, fmt.Errorf("want: at <time> <action>")
		}
		t, err := parseDur(f[1])
		if err != nil {
			return p, err
		}
		p.From, p.To = t, t
		switch f[2] {
		case "join":
			if len(f) != 4 {
				return p, fmt.Errorf("want: at <time> join <n>")
			}
			n, err := strconv.Atoi(f[3])
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad join count %q", f[3])
			}
			p.JoinN = n
		case "leave":
			if len(f) != 4 {
				return p, fmt.Errorf("want: at <time> leave <n|p%%>")
			}
			if strings.HasSuffix(f[3], "%") {
				pct, err := parsePct(f[3])
				if err != nil {
					return p, err
				}
				p.LeavePct = pct
			} else {
				n, err := strconv.Atoi(f[3])
				if err != nil || n < 0 {
					return p, fmt.Errorf("bad leave count %q", f[3])
				}
				p.LeaveN = n
			}
		case "stop":
			p.Stop = true
		default:
			return p, fmt.Errorf("unknown action %q", f[2])
		}
		return p, nil

	case "from":
		if len(f) < 5 || f[2] != "to" {
			return p, fmt.Errorf("want: from <t1> to <t2> <spec…>")
		}
		t1, err := parseDur(f[1])
		if err != nil {
			return p, err
		}
		t2, err := parseDur(f[3])
		if err != nil {
			return p, err
		}
		if t2 <= t1 {
			return p, fmt.Errorf("interval end %s not after start %s", t2, t1)
		}
		p.From, p.To = t1, t2
		rest := f[4:]
		switch rest[0] {
		case "inc", "dec":
			if len(rest) < 2 {
				return p, fmt.Errorf("want: inc <n>")
			}
			n, err := strconv.Atoi(rest[1])
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad delta %q", rest[1])
			}
			if rest[0] == "dec" {
				n = -n
			}
			p.IncN = n
			rest = rest[2:]
		case "const":
			p.Const = true
			rest = rest[1:]
		default:
			return p, fmt.Errorf("unknown interval spec %q", rest[0])
		}
		if len(rest) > 0 {
			if rest[0] != "churn" || len(rest) != 2 {
				return p, fmt.Errorf("trailing tokens %v", rest)
			}
			pct, err := parsePct(rest[1])
			if err != nil {
				return p, err
			}
			p.ChurnPct = pct
		}
		return p, nil
	}
	return p, fmt.Errorf("line must start with 'at' or 'from'")
}

func parseDur(s string) (time.Duration, error) {
	if n, err := strconv.Atoi(s); err == nil {
		return time.Duration(n) * time.Second, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return d, nil
}

func parsePct(s string) (float64, error) {
	if !strings.HasSuffix(s, "%") {
		return 0, fmt.Errorf("bad percentage %q", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad percentage %q", s)
	}
	return v / 100, nil
}

// PaperScript is the exact Fig. 4 example.
const PaperScript = `at 30s join 10
from 5m to 10m inc 10
from 10m to 15m const churn 50%
at 15m leave 50%
from 15m to 20m inc 10 churn 150%
at 20m stop`
