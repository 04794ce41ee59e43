package crashmc

import "bbb/internal/memory"

// Exported seams over the enumeration internals. CheckRecord is the one
// image-validation path: Run's checkers call it with the workload's
// recovery checker, and the litmus conformance gate
// (internal/litmus/conform) with a judge that reads each image's outcome
// against the axiomatic allowed set. ApplyOverlay and RevertOverlay are
// kept for the benchmark's per-stage decomposition (bench/decompose.go),
// which times Enumerate and the validation of its images on a cloned base
// as separate stages.

// CheckRecord enumerates the reachable images of one crash point within
// c.Bounds and judges each with check as the enumerator streams it, on the
// caller's goroutine. Each image is written into rec.Base in place for the
// call and restored after it, so check may read m only during the call.
// The first violation is minimized — check also judges the smaller legal
// sets the minimizer tries — and pinned as the result's Witness for
// campaign c.
func (c Config) CheckRecord(rec *Record, check func(m *memory.Memory) error) PointResult {
	s := getScratch()
	defer scratchPool.Put(s)
	return s.checkPoint(c, rec, check)
}

// ApplyOverlay writes an image overlay into m, with Memory's write
// accounting.
func ApplyOverlay(m *memory.Memory, overlay []LineWrite) {
	for i := range overlay {
		m.WriteLine(overlay[i].Addr, &overlay[i].Data)
	}
}

// RevertOverlay restores m's overlaid lines from base.
func RevertOverlay(m, base *memory.Memory, overlay []LineWrite) {
	var line [memory.LineSize]byte
	for i := range overlay {
		base.PeekLine(overlay[i].Addr, &line)
		m.WriteLine(overlay[i].Addr, &line)
	}
}
