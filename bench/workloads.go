package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"bbb"
)

// size scales one pass of a workload's job.
type size struct {
	ops    int // operations per simulated thread
	points int // crashmc: crash points per configuration
}

// workload is one named job the benchmark times. Every unit goes through a
// public driver (bbb.RunFig7, bbb.ModelCheck), so a gain inside a driver
// shows here.
type workload struct {
	name string
	// item names what items_per_s counts.
	item string
	// full is the timed size, warm the untimed warm-up, tiny the test size.
	full, warm, tiny size
	// plan lists the units of one pass; they run one at a time, each
	// parallel inside its driver at Parallelism par.
	plan func(seed int64, sz size, par int) []unit
	// decompose re-executes the units layer by layer under spans and checks
	// it against outs, a pass of plan(seed, sz, par).
	decompose func(d *decomposer, seed int64, sz size, outs []outcome) error
}

// unit is one call into a driver plus the check of what it returned.
type unit struct {
	name string
	run  func() outcome
}

// outcome is what one unit produced.
type outcome struct {
	out   any    // the driver's return value, deep-compared on re-runs
	items int    // work items completed (see workload.item)
	canon string // canonical simulated outputs, the fingerprint input
	exact map[string]float64
	err   error // the unit panicked or its output failed its check
}

// par is the driver Parallelism of the timed passes, matching the two cores
// the benchmark was sized on.
const par = 2

var workloads = []workload{
	// fig7 is the paper's headline figure: long, miss-heavy simulations
	// (working set >> caches) that load the program/core handoff, engine,
	// coherence, cache and memory, and barely touch crashmc.
	{
		name:      "fig7",
		item:      "simulations",
		full:      size{ops: 500},
		warm:      size{ops: 50},
		tiny:      size{ops: 50},
		plan:      planFig7,
		decompose: decomposeFig7,
	},
	// crashmc is the bbbmc acceptance matrix: many short simulations, image
	// enumeration, recovery checks and GC; it should not move with handoff
	// work.
	{
		name:      "crashmc",
		item:      "images",
		full:      size{ops: 150, points: 40},
		warm:      size{ops: 150, points: 2},
		tiny:      size{ops: 30, points: 2},
		plan:      planCrashMC,
		decompose: decomposeCrashMC,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fingerprint is the sha256 of a pass's canonical simulated outputs.
func fingerprint(outs []outcome) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%d:%s\n", len(o.canon), o.canon)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- fig7 ---

// fig7Options is EXPERIMENTS.md's scaled Figure 7 regime: 8 cores with
// 8 KiB L1s and a 64 KiB L2, so the working set far exceeds the caches.
func fig7Options(seed int64, ops, par int) bbb.Options {
	return bbb.Options{Threads: 8, OpsPerThread: ops, L1Size: 8 << 10, L2Size: 64 << 10, Seed: seed, Parallelism: par}
}

// The paper's Figure 7 headline numbers for BBB-32 over eADR (§V-A).
const (
	paperMeanExec   = 1.01
	paperWorstExec  = 1.028
	paperMeanWrites = 1.049
)

// paperErrPct is the mean relative error, in percent, of the measured
// Figure 7 headline ratios against the paper's.
func paperErrPct(r bbb.Fig7Result) float64 {
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	return 100 * (rel(1+r.MeanExecOverheadBBB32, paperMeanExec) +
		rel(1+r.WorstExecOverheadBBB32, paperWorstExec) +
		rel(1+r.MeanWriteOverheadBBB32, paperMeanWrites)) / 3
}

func planFig7(seed int64, sz size, par int) []unit {
	return []unit{{
		name: fmt.Sprintf("fig7/seed=%d", seed),
		run: func() outcome {
			r := bbb.RunFig7(fig7Options(seed, sz.ops, par))
			o := outcome{out: r, items: 3 * len(r.Rows)}
			canon, err := json.Marshal(r)
			if err != nil {
				o.err = fmt.Errorf("non-finite ratio: %w", err)
				return o
			}
			o.canon = string(canon)
			o.exact = map[string]float64{"fig7.paper_err_pct": paperErrPct(r)}
			return o
		},
	}}
}

// --- crashmc ---

// mcConfig is one campaign of the bbbmc acceptance matrix.
type mcConfig struct {
	workload   string
	scheme     bbb.Scheme
	noBarriers bool
}

func mcMatrix() []mcConfig {
	var out []mcConfig
	for _, w := range bbb.Workloads() {
		out = append(out, mcConfig{w, bbb.SchemeBBB, true}, mcConfig{w, bbb.SchemeEADR, true})
	}
	for _, s := range []bbb.Scheme{bbb.SchemePMEM, bbb.SchemeBEP} {
		out = append(out, mcConfig{"linkedlist", s, false}, mcConfig{"linkedlist", s, true})
	}
	return out
}

// mcFirstCrash and mcStep place the crash points before each program ends
// (at 2 threads x 150 ops with 1 KiB/4 KiB caches mutates run ~99 k cycles,
// linkedlist ~140 k, swaps ~195 k, trees 1.1-1.6 M). The trees' points
// cover only their first 250 k cycles, so every simulation stays short and
// enumeration and recovery checks weigh most.
const mcFirstCrash = 4000

func mcStep(w string, points int) bbb.Cycle {
	span := 95_000 // mutateNC, mutateC
	switch w {
	case "rtree", "ctree", "hashmap":
		span = 250_000
	case "swapNC", "swapC":
		span = 180_000
	case "linkedlist":
		span = 130_000
	}
	return bbb.Cycle(span / points)
}

func mcOptions(c mcConfig, seed int64, ops, par int) bbb.Options {
	// Small caches reorder persists aggressively, growing the pending set
	// the enumerator gets to flip (as bbbmc).
	return bbb.Options{Threads: 2, OpsPerThread: ops, NoBarriers: c.noBarriers, Seed: seed,
		Parallelism: par, L1Size: 1024, L2Size: 4096}
}

func planCrashMC(seed int64, sz size, par int) []unit {
	var units []unit
	for _, c := range mcMatrix() {
		units = append(units, unit{
			name: fmt.Sprintf("%s/%s/barriers=%v/seed=%d", c.workload, c.scheme, !c.noBarriers, seed),
			run: func() outcome {
				rep, err := bbb.ModelCheck(c.workload, c.scheme, mcOptions(c, seed, sz.ops, par), sz.points,
					mcFirstCrash, mcStep(c.workload, sz.points), bbb.MCBounds{})
				if err != nil {
					return outcome{err: err}
				}
				return mcOutcome(c, rep)
			},
		})
	}
	return units
}

func mcOutcome(c mcConfig, rep bbb.MCReport) outcome {
	o := outcome{out: rep, items: rep.TotalDistinct, canon: mcCanon(rep)}
	afterFinish := 0
	var skipped uint64
	for _, p := range rep.Points {
		if p.Finished {
			afterFinish++
		}
		skipped += p.SetsSkipped
	}
	o.exact = map[string]float64{
		"crashmc.images":              float64(rep.TotalDistinct),
		"crashmc.sets":                float64(rep.TotalSets),
		"crashmc.sets_skipped":        float64(skipped),
		"crashmc.points_after_finish": float64(afterFinish),
	}
	o.err = mcExpectation(c, rep)
	return o
}

// mcExpectation is bbbmc's gate: battery schemes show one image and no
// violation per crash point, barriered PMEM is clean, and barrier-free PMEM
// yields a violation whose minimized witness replays. BEP is informational.
func mcExpectation(c mcConfig, rep bbb.MCReport) error {
	switch c.scheme {
	case bbb.SchemeBBB, bbb.SchemeEADR:
		if !rep.SingleImage() || rep.TotalViolating != 0 {
			return fmt.Errorf("battery scheme: single image %v, %d violating", rep.SingleImage(), rep.TotalViolating)
		}
	case bbb.SchemePMEM:
		if !c.noBarriers {
			if rep.TotalViolating != 0 {
				return fmt.Errorf("pmem with barriers: %d violating images", rep.TotalViolating)
			}
			return nil
		}
		wit := rep.FirstWitness()
		if rep.TotalViolating == 0 || wit == nil {
			return fmt.Errorf("pmem without barriers: no violation with a witness found")
		}
		out, err := bbb.ReplayWitness(wit)
		if err != nil {
			return fmt.Errorf("witness replay: %w", err)
		}
		if !out.Reproduced {
			return fmt.Errorf("witness did not reproduce: %s", out.Err)
		}
	}
	return nil
}

func mcCanon(rep bbb.MCReport) string {
	var b strings.Builder
	b.WriteString(rep.String())
	b.WriteByte('\n')
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "@%d fin=%v dom=%d pend=%d sets=%d skip=%d img=%d bad=%d",
			p.CrashCycle, p.Finished, p.DomainLines, p.Pending, p.Sets, p.SetsSkipped, p.DistinctImages, p.ViolatingImages)
		for _, v := range p.Violations {
			fmt.Fprintf(&b, " %x%v", v.Hash[:8], v.Minimized)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
