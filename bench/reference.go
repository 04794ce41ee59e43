package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host-speed reference is a fixed job made of what the simulator's host
// time is made of: dependent random loads and stores over 32 MiB on each of
// the two cores, then goroutine handoffs over a channel pair. This host's
// speed swings by tens of percent over minutes, and the benchmark's passes
// swing with it; the reference, timed between the passes, measures the
// swing so that the reported times can be scaled back to refNominal speed.
// It runs in a child process, so neither its memory nor the program's heap
// disturbs the other.
const (
	refWords    = 4 << 20 // uint64s per core: 32 MiB
	refSteps    = 500_000
	refHandoffs = 150_000
	// refNominal is the reference's time, in seconds, on the host the
	// benchmark was calibrated on (a 2-vCPU VM): scaled times are the
	// seconds a run would take with the reference at that speed.
	refNominal = 0.2
)

// referenceMain is `bench reference`: it times the reference job once and
// prints the seconds.
func referenceMain(stdout io.Writer) int {
	var bigs [2][]uint64
	for k := range bigs {
		bigs[k] = make([]uint64, refWords)
		for i := range bigs[k] {
			bigs[k][i] = uint64(i)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	var sink [2]uint64
	for k := range bigs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink[k] = chase(bigs[k], uint64(k+1))
		}()
	}
	wg.Wait()
	handoffs(refHandoffs)
	fmt.Fprintf(stdout, "%v %d\n", time.Since(start).Seconds(), sink[0]^sink[1])
	return 0
}

// chase makes refSteps dependent random loads and stores over big.
func chase(big []uint64, seed uint64) uint64 {
	x, idx, mask := seed, uint64(0), uint64(len(big)-1)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx = (x + big[idx]) & mask
		big[idx]++
	}
	return idx
}

// handoffs passes a value back and forth between two goroutines n times.
func handoffs(n int) {
	req, resp := make(chan int), make(chan int)
	go func() {
		for v := range req {
			resp <- v + 1
		}
		close(resp)
	}()
	for i := 0; i < n; i++ {
		req <- i
		<-resp
	}
	close(req)
	<-resp
}

// referenceSeconds runs the reference in a child process and returns its
// time.
func referenceSeconds() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "reference").Output()
	if err != nil {
		return 0, fmt.Errorf("running the reference: %w", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) == 0 {
		return 0, fmt.Errorf("the reference printed nothing")
	}
	return strconv.ParseFloat(fields[0], 64)
}
