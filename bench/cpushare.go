package main

import (
	"sort"
	"strings"
)

// cpuBuckets are the layers a CPU sample is attributed to, by the
// package of its innermost frame. They partition every sample, so the
// shares of one workload sum to 100 %.
var cpuBuckets = []string{
	"sim", "simnet", "rpc", "llenc", "core", "sandbox", "metrics", "faults",
	"controller", "daemon", "ctlproto", "hosting", "config", "churn",
	"protocols", "encoding_json", "runtime_sched", "runtime_gc", "other",
}

const modulePrefix = "github.com/splaykit/splay/internal/"

// foldedPackages are internal packages without a bucket of their own,
// counted with the layer they serve: the ring/arena memory plane under
// the protocols that store their routing state in it, link models and
// the transport vocabulary under the simulated network that evaluates
// them on every delivery.
var foldedPackages = map[string]string{
	"ring": "protocols", "arena": "protocols",
	"topology": "simnet", "transport": "simnet",
}

// Runtime functions that hand the processor from one goroutine to
// another (every kernel task switch is a channel hand-off, every
// partition barrier a futex) and the ones that allocate or collect.
// Matched as prefixes of the name after "runtime.".
var (
	schedPrefixes = []string{
		"futex", "chan", "park", "gopark", "goready", "ready", "schedule", "findRunnable", "runq",
		"mcall", "execute", "wakep", "startm", "stopm", "mPark", "note", "lock", "unlock", "osyield",
		"usleep", "procyield", "netpoll", "stealWork", "casgstatus", "gogo", "resetspinning", "pidle",
		"(*waitq)", "(*guintptr)", "sel", "send", "recv", "acquireSudog", "releaseSudog", "sema",
		"handoffp", "dropg", "checkTimers", "nanotime",
	}
	gcPrefixes = []string{
		"gc", "malloc", "scan", "mark", "sweep", "greyobject", "findObject", "bg", "wb", "newobject",
		"newarray", "growslice", "makeslice", "memclr", "(*mspan)", "(*mcache)", "(*mcentral)", "(*mheap)",
		"(*gcWork)", "(*gcBits)", "(*gcControllerState)", "(*limiterEvent)", "(*pageAlloc)", "(*spanSet)",
		"(*lfstack)", "nextFreeFast", "heapBits", "typePointers", "spanOf", "bulkBarrier",
		"deductAssistCredit", "publicationBarrier",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuBucket names the layer a function belongs to.
func cpuBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, modulePrefix):
		rest := fn[len(modulePrefix):]
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if to, ok := foldedPackages[pkg]; ok {
			return to
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "runtime."):
		rest := fn[len("runtime."):]
		if hasAnyPrefix(rest, schedPrefixes) {
			return "runtime_sched"
		}
		if hasAnyPrefix(rest, gcPrefixes) {
			return "runtime_gc"
		}
	}
	return "other"
}

// cpuShares turns leaf samples into percent per bucket, every bucket
// present, summing to 100 (all zero for an empty profile). top lists the
// heaviest leaf functions for the human-readable report.
func cpuShares(leaves map[string]int64) (shares map[string]float64, top []string) {
	shares = make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total int64
	for fn, v := range leaves {
		shares[cpuBucket(fn)] += float64(v)
		total += v
	}
	if total == 0 {
		return shares, nil
	}
	for b := range shares {
		shares[b] = shares[b] / float64(total) * 100
	}
	names := make([]string, 0, len(leaves))
	for fn := range leaves {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if leaves[names[i]] != leaves[names[j]] {
			return leaves[names[i]] > leaves[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > 8 {
		names = names[:8]
	}
	return shares, names
}
