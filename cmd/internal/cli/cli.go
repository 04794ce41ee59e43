// Package cli is the front end the simulation commands share: the run
// flags (-workload, -scheme, -ops, -threads, -seed, -parallel,
// -no-barriers) declared once with each command's defaults, their
// (workload × scheme) matrix as bbb.RunGrid cells, and the helpers several
// commands need — the ledger host stamp, the witness-file write and the
// BENCH document. It lives under cmd/ because it probes the host
// (hostname, CPU count, wall clock), which detlint keeps out of the
// simulator packages.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"bbb"
	"bbb/internal/crashmc"
	"bbb/internal/obs"
	"bbb/internal/persistency"
)

// Flag selects one of the shared run flags.
type Flag uint

const (
	Workload   Flag = 1 << iota // -workload: comma-separated workload list
	Scheme                      // -scheme: comma-separated scheme list
	Ops                         // -ops: operations per thread
	Threads                     // -threads: threads/cores (service clients)
	Seed                        // -seed: workload RNG seed
	Parallel                    // -parallel: concurrent simulations
	NoBarriers                  // -no-barriers: the Figure 2 variant
)

// Run holds the shared run flags' values.
type Run struct {
	Workload   string
	Scheme     string
	Ops        int
	Threads    int
	Seed       int64
	Parallel   int
	NoBarriers bool
}

// Spec is one command's use of the run flags: which of them it declares,
// their defaults, and the workload names its -workload help lists.
// -parallel always defaults to runtime.GOMAXPROCS(0).
type Spec struct {
	Flags     Flag
	Defaults  Run
	Workloads string
}

// The commands' specs; each command registers its own.
var (
	Sim = Spec{
		Flags:     Workload | Scheme | Ops | Threads | Seed | Parallel | NoBarriers,
		Defaults:  Run{Workload: "hashmap", Scheme: "bbb", Ops: 1000, Threads: 8, Seed: 1},
		Workloads: strings.Join(bbb.Workloads(), ", ") + ", linkedlist, kv, kv/uniform",
	}
	MC = Spec{
		Flags:     Workload | Scheme | Ops | Threads | Parallel | NoBarriers,
		Defaults:  Run{Ops: 150, Threads: 2},
		Workloads: "one bbbsim workload, with one -scheme (default: the acceptance matrix)",
	}
	KV = Spec{
		Flags:     Workload | Scheme | Ops | Threads | Seed | Parallel,
		Defaults:  Run{Workload: "kv", Scheme: schemeNames(), Ops: 400, Threads: 4, Seed: 1},
		Workloads: "kv (zipfian keys), kv/uniform",
	}
	Bench  = Spec{Flags: Ops | Threads | Parallel, Defaults: Run{Ops: 300, Threads: 8}}
	Litmus = Spec{Flags: Scheme | Parallel}
	Vet    = Spec{Flags: Threads, Defaults: Run{Threads: 2}}
)

// Register declares s's run flags on fs and returns the Run they parse
// into; flags s does not declare keep their defaults.
func (s Spec) Register(fs *flag.FlagSet) *Run {
	r := s.Defaults
	if s.Flags&Workload != 0 {
		fs.StringVar(&r.Workload, "workload", r.Workload, "workload, or a comma-separated list: "+s.Workloads)
	}
	if s.Flags&Scheme != 0 {
		fs.StringVar(&r.Scheme, "scheme", r.Scheme, "persistency scheme, or a comma-separated list: "+schemeNames())
	}
	if s.Flags&Ops != 0 {
		fs.IntVar(&r.Ops, "ops", r.Ops, "operations per thread (requests per client on the service workloads)")
	}
	if s.Flags&Threads != 0 {
		fs.IntVar(&r.Threads, "threads", r.Threads, "threads/cores (one client per core on the service workloads)")
	}
	if s.Flags&Seed != 0 {
		fs.Int64Var(&r.Seed, "seed", r.Seed, "workload RNG seed")
	}
	if s.Flags&Parallel != 0 {
		fs.IntVar(&r.Parallel, "parallel", runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial; output is identical either way)")
	}
	if s.Flags&NoBarriers != 0 {
		fs.BoolVar(&r.NoBarriers, "no-barriers", r.NoBarriers, "omit persist barriers (the Figure 2 variant)")
	}
	return &r
}

func schemeNames() string {
	var names []string
	for _, s := range persistency.Schemes() {
		names = append(names, s.String())
	}
	return strings.Join(names, ",")
}

// Reject returns an error naming the first of names, in list order, that
// was set on fs's command line, or nil if none was. A command passes the
// flags its current mode does not read, so setting one fails loudly
// instead of being ignored; mode ends the message ("… with -campaign").
func Reject(fs *flag.FlagSet, mode string, names ...string) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range names {
		if set[name] {
			return fmt.Errorf("-%s has no effect %s", name, mode)
		}
	}
	return nil
}

// Options returns the bbb.Options the run flags set.
func (r *Run) Options() bbb.Options {
	return bbb.Options{
		Threads:      r.Threads,
		OpsPerThread: r.Ops,
		Seed:         r.Seed,
		NoBarriers:   r.NoBarriers,
		Parallelism:  r.Parallel,
	}
}

// Schemes parses a comma-separated scheme list, trimming the space around
// each name.
func Schemes(list string) ([]bbb.Scheme, error) {
	var out []bbb.Scheme
	for _, name := range strings.Split(list, ",") {
		s, err := bbb.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Cells returns the cross product of the -workload and -scheme lists in
// workload-major order, each cell run with o: the matrix bbb.RunGrid runs.
func (r *Run) Cells(o bbb.Options) ([]bbb.Cell, error) {
	schemes, err := Schemes(r.Scheme)
	if err != nil {
		return nil, err
	}
	var out []bbb.Cell
	for _, w := range strings.Split(r.Workload, ",") {
		for _, s := range schemes {
			out = append(out, bbb.Cell{Workload: strings.TrimSpace(w), Scheme: s, Options: o})
		}
	}
	return out, nil
}

// HostInfo stamps a ledger line with where and when it was written.
func HostInfo() *obs.HostInfo {
	host, _ := os.Hostname()
	return &obs.HostInfo{
		Hostname: host,
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		UnixNS:   time.Now().UnixNano(),
	}
}

// WriteWitness writes w, indented, to path.
func WriteWitness(path string, w *crashmc.Witness) error {
	data, err := w.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
