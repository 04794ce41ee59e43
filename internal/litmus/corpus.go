package litmus

import "fmt"

// Variable ids shared by every corpus shape: x=0, y=1, z=2.
const (
	vx = 0
	vy = 1
	vz = 2
)

// Corpus returns the generated litmus tests, in a fixed deterministic
// order. Each classic shape appears bare (no persist instructions — the
// weakest PMEM behavior), with flushes only (clwb without sfence orders
// nothing under Px86), and with flush+fence (the strongest code the PMEM
// API offers). The single-thread shapes probe write-back interactions the
// two-thread shapes can't: same-line double writes, multi-epoch chains,
// and a line dirtied in two different epochs.
//
// Workload runs any valid Test, so the corpus is data only: a new shape
// needs no code beside its entry here.
func Corpus() []*Test {
	tests := []*Test{
		{
			Name: "sb",
			Doc:  "store buffering: two threads store then read the other's var; no persist ops, so any store subset may survive",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Ld(vy)},
				{St(vy, 1), Ld(vx)},
			},
		},
		{
			Name: "sb+flush",
			Doc:  "store buffering with clwb but no sfence: flushes alone order nothing under Px86, so the allowed set matches bare sb",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), Ld(vy)},
				{St(vy, 1), Fl(vy), Ld(vx)},
			},
		},
		{
			Name: "sb+fence",
			Doc:  "store buffering with clwb;sfence after each store: still all four outcomes, since the fences order nothing across threads",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), Fn(), Ld(vy)},
				{St(vy, 1), Fl(vy), Fn(), Ld(vx)},
			},
		},
		{
			Name: "mp",
			Doc:  "message passing: unfenced publish, so relaxed Px86 allows the flag to persist without the payload",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), St(vy, 1)},
				{Ld(vy), Ld(vx)},
			},
		},
		{
			Name: "mp+flush",
			Doc:  "message passing with clwb x but no sfence before the flag: the flush orders nothing, y=1∧x=0 stays allowed",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), St(vy, 1)},
				{Ld(vy), Ld(vx)},
			},
		},
		{
			Name: "mp+fence",
			Doc:  "message passing with clwb x; sfence before the flag store: the canonical Px86 publish — flag durable implies payload durable",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), Fn(), St(vy, 1)},
				{Ld(vy), Ld(vx)},
			},
		},
		{
			Name: "lb",
			Doc:  "load buffering: loads then stores; persistency-wise two unordered stores on different threads",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{Ld(vy), St(vx, 1)},
				{Ld(vx), St(vy, 1)},
			},
		},
		{
			Name: "lb+flush",
			Doc:  "load buffering with a trailing clwb per thread and no sfence: persistency unchanged from bare lb",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{Ld(vy), St(vx, 1), Fl(vx)},
				{Ld(vx), St(vy, 1), Fl(vy)},
			},
		},
		{
			Name: "2+2w",
			Doc:  "2+2W: both threads write both vars in opposite orders with no persist ops; any write subset may survive, modulo TSO coherence per var",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), St(vy, 2)},
				{St(vy, 1), St(vx, 2)},
			},
		},
		{
			Name: "2+2w+fence",
			Doc:  "2+2W with clwb;sfence between each thread's writes: each thread's second store durable implies its first is",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), Fn(), St(vy, 2)},
				{St(vy, 1), Fl(vy), Fn(), St(vx, 2)},
			},
		},
		{
			Name: "wb",
			Doc:  "write-back: one thread dirties x twice around y and z with no persist ops; exercises same-line coalescing in the cache",
			Vars: []string{"x", "y", "z"},
			Threads: [][]Op{
				{St(vx, 1), St(vy, 1), St(vx, 2), St(vz, 1)},
			},
		},
		{
			Name: "wb+fence",
			Doc:  "write-back with clwb x; clwb y; sfence before the z store: z durable implies the final x and y are",
			Vars: []string{"x", "y", "z"},
			Threads: [][]Op{
				{St(vx, 1), St(vy, 1), St(vx, 2), Fl(vx), Fl(vy), Fn(), St(vz, 1)},
			},
		},
		{
			Name: "mp3",
			Doc:  "three-store chain on one thread, unfenced: under relaxed Px86 all eight persist subsets are allowed",
			Vars: []string{"x", "y", "z"},
			Threads: [][]Op{
				{St(vx, 1), St(vy, 1), St(vz, 1)},
			},
		},
		{
			Name: "mp3+fence",
			Doc:  "three-store chain with clwb;sfence between each link: persist sets collapse to the four program-order prefixes",
			Vars: []string{"x", "y", "z"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), Fn(), St(vy, 1), Fl(vy), Fn(), St(vz, 1)},
			},
		},
		{
			Name: "2epoch-line",
			Doc:  "one line dirtied in two consecutive epochs, then a dependent store: probes per-epoch write-back when a line spans epochs",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), Fn(), St(vx, 2), Fl(vx), Fn(), St(vy, 1)},
			},
		},
		{
			Name: "cas-mp",
			Doc:  "message passing with a CAS flag, unfenced: the CAS always succeeds (y starts 0) but is no persist fence, so relaxed still allows flag-without-payload",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Cs(vy, 0, 1)},
				{Ld(vy), Ld(vx)},
			},
		},
		{
			Name: "cas-mp+fence",
			Doc:  "message passing publishing via clwb x; sfence; CAS flag — the pds commit discipline: flag durable implies payload durable under every model",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Fl(vx), Fn(), Cs(vy, 0, 1)},
				{Ld(vy), Ld(vx)},
			},
		},
		{
			Name: "cas-fail",
			Doc:  "a CAS whose expectation never matches (x holds 1, the CAS expects 5): a failed CAS writes nothing, so 7 must appear in no model's outcome set",
			Vars: []string{"x", "y"},
			Threads: [][]Op{
				{St(vx, 1), Cs(vx, 5, 7), St(vy, 1)},
			},
		},
		{
			Name: "cas-chain",
			Doc:  "cross-thread increment chain: thread 1's CAS expects thread 0's new value, so x=2 is reachable only in memory orders where thread 0's CAS lands first",
			Vars: []string{"x"},
			Threads: [][]Op{
				{Cs(vx, 0, 1)},
				{Cs(vx, 1, 2)},
			},
		},
		{
			Name: "cas-race",
			Doc:  "two threads race a CAS on x from 0, then store a private flag: exactly one CAS succeeds per memory order; strict forbids any flag durable while x is still 0",
			Vars: []string{"x", "y", "z"},
			Threads: [][]Op{
				{Cs(vx, 0, 1), St(vy, 1)},
				{Cs(vx, 0, 2), St(vz, 1)},
			},
		},
	}
	for _, t := range tests {
		if err := t.Validate(); err != nil {
			panic(err)
		}
	}
	return tests
}

// ByName finds a corpus test.
func ByName(name string) (*Test, error) {
	for _, t := range Corpus() {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("litmus: unknown test %q", name)
}
