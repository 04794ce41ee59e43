package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// fold attributes the samples of a `go tool pprof -traces` listing to the
// hostShares buckets and returns each bucket's share of all sample time, in
// percent; the shares sum to 100.
//
// A stack is classified, in order:
//   - runtime.gc_pct if it is GC work (a background mark worker, a mark
//     assist, the sweeper or the scavenger);
//   - runtime.sched_pct if no frame is the repository's (bbb or the bench),
//     such as findRunnable, futex waits and goroutine switches on g0;
//   - by its leaf-most repository frame: bbb/internal/<pkg> goes to
//     <pkg>.host_pct when that is a bucket, anything else to other.host_pct.
//     A leaf-most internal/cpu frame that sits above channel, select or park
//     frames is the program/core handoff, cpu.handoff_pct.
func fold(r io.Reader) (map[string]float64, error) {
	buckets := map[string]time.Duration{}
	var total time.Duration
	var stack []string
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			buckets[classify(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			// "     10ms   runtime.futex": the sample value, then the leaf.
			if len(fields) < 2 {
				return nil, fmt.Errorf("fold: trace starts without a value: %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fold: sample value %q: %w", fields[0], err)
			}
			value = d
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fold: %w", err)
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("fold: the profile holds no samples")
	}
	shares := map[string]float64{}
	for _, b := range hostShares {
		shares[b] = 100 * float64(buckets[b]) / float64(total)
	}
	return shares, nil
}

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

var handoffFrames = []string{"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
	"runtime.goready", "runtime.sellock", "runtime.selunlock", "runtime.coroswitch"}

// classify returns the bucket of one stack, leaf first.
func classify(stack []string) string {
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFrames) {
			return "runtime.gc_pct"
		}
	}
	for i, fn := range stack {
		if !strings.HasPrefix(fn, "bbb/") && !strings.HasPrefix(fn, "bbb.") && !strings.HasPrefix(fn, "main.") {
			continue
		}
		pkg, ok := strings.CutPrefix(fn, "bbb/internal/")
		if !ok {
			return "other.host_pct"
		}
		if j := strings.IndexAny(pkg, "./"); j >= 0 {
			pkg = pkg[:j]
		}
		if pkg == "cpu" {
			for _, leaf := range stack[:i] {
				if hasAnyPrefix(leaf, handoffFrames) {
					return "cpu.handoff_pct"
				}
			}
		}
		bucket := pkg + ".host_pct"
		for _, b := range hostShares {
			if b == bucket {
				return bucket
			}
		}
		return "other.host_pct"
	}
	return "runtime.sched_pct"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
