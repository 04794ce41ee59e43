// Linkedlist: the paper's motivating example (Figures 2 and 3), run as a
// crash-injection experiment.
//
// Figure 2's AppendNode writes the new node and then the head pointer with
// no flushes or fences. Under the PMEM baseline the head can reach NVMM
// before the node (cache eviction order), so a crash strands the head
// pointing at garbage. Figure 3 fixes it with writeBack+persistBarrier
// pairs. BBB's point is that Figure 2's code is already crash consistent —
// the bbPB persists every store in program order as it commits.
//
//	go run ./examples/linkedlist
package main

import (
	"fmt"
	"log"

	"bbb"
)

func main() {
	log.SetFlags(0)
	o := bbb.Options{
		Threads:      4,
		OpsPerThread: 400,
		// Tiny caches reorder evictions aggressively, exposing the bug.
		L1Size: 1024,
		L2Size: 4096,
	}
	const points = 15

	type row struct {
		label      string
		scheme     bbb.Scheme
		noBarriers bool
	}
	rows := []row{
		{"PMEM + barriers   (Figure 3)", bbb.SchemePMEM, false},
		{"PMEM, no barriers (Figure 2)", bbb.SchemePMEM, true},
		{"eADR, no barriers", bbb.SchemeEADR, true},
		{"BBB,  no barriers (this paper)", bbb.SchemeBBB, true},
	}

	fmt.Printf("prepending nodes, crashing at %d points, then walking the durable image:\n\n", points)
	for _, r := range rows {
		opt := o
		opt.NoBarriers = r.noBarriers
		// One image per crash point: the deterministic flush-on-fail one.
		rep, err := bbb.ModelCheck("linkedlist", r.scheme, opt, points, 4_000, 9_000, bbb.MCBounds{MaxImages: 1})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "recovered at every crash point"
		if rep.TotalViolating > 0 {
			verdict = fmt.Sprintf("UNRECOVERABLE at %d/%d crash points (first: %s)",
				rep.TotalViolating, points, rep.FirstWitness().Err)
		}
		fmt.Printf("%-32s %s\n", r.label, verdict)
	}

	fmt.Println("\nconclusion: with BBB the programmer writes Figure 2's natural code and still")
	fmt.Println("gets strict persistency; with PMEM they must place every barrier correctly.")
}
