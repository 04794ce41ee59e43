// Package sweep is the deterministic parallel fan-out used by the
// experiment drivers and crash campaigns: a fixed work list of independent
// simulation points is executed by a bounded worker pool, and every result
// is written into an index-addressed slot supplied by the caller.
//
// The determinism contract: each task must be self-contained — it builds
// its own engine.Engine and machine, shares nothing mutable with other
// tasks, and writes only to its own slot. Because a simulation's outcome
// depends only on its inputs (seed, config), not on when or on which
// goroutine it runs, the joined results are identical to a serial loop in
// index order, whatever the worker count. The callers' aggregation then
// runs serially over the slots, so figures, tables and reports come out
// byte-identical, parallel or not. A crash campaign (crashmc) runs one
// walker task and checker tasks fed by it over a channel; each crash
// point's result still lands in its own slot, whoever checked it.
package sweep

import (
	"sync"
	"sync/atomic"
)

// Run executes task(0), ..., task(n-1), fanning out over at most workers
// goroutines. workers <= 1 (or n < 2) degenerates to a plain serial loop on
// the caller's goroutine. Tasks are claimed from a shared counter, so
// uneven point costs still load-balance.
//
// A panicking task does not tear down the process from a worker goroutine:
// Run waits for the remaining workers, then re-panics the panic value of
// the lowest-indexed failed task on the caller's goroutine — the same panic
// a serial loop would have surfaced first.
func Run(workers, n int, task func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked bool
		panicIdx int
		panicVal any
	)
	claim := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if !panicked || i < panicIdx {
							panicked, panicIdx, panicVal = true, i, r
						}
						mu.Unlock()
					}
				}()
				task(i)
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go claim()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// Map runs task over 0..n-1 like Run and collects the return values in
// index order.
func Map[T any](workers, n int, task func(i int) T) []T {
	out := make([]T, n)
	Run(workers, n, func(i int) { out[i] = task(i) })
	return out
}

// RunIndices is Run over an explicit index list: task(idx[0]), ...,
// task(idx[len-1]) with the same claiming, panic-propagation and
// determinism contract (the lowest-positioned failed task's panic wins).
// The campaign driver uses it to execute only a checkpoint's pending
// points while keeping slots addressed by original point index.
func RunIndices(workers int, idx []int, task func(i int)) {
	Run(workers, len(idx), func(k int) { task(idx[k]) })
}
