package crashmc

import (
	"bbb/internal/engine"
	"bbb/internal/memory"
)

// Exported seams over the enumeration internals, for validators other
// than the built-in recovery-checker pass of Run: the litmus conformance
// driver (internal/litmus/conform) enumerates with Enumerate exactly as
// checkPoint does, but judges each image against the axiomatic allowed
// set instead of workload.Check — so it needs the image, overlay,
// minimization and witness plumbing individually.

// Materialize builds the durable image overlay for one survival set. The
// image's Hash is left zero.
func Materialize(rec *Record, survivors []int) Image { return materialize(rec, survivors) }

// ApplyOverlay writes an image overlay into m.
func ApplyOverlay(m *memory.Memory, overlay []LineWrite) { applyOverlay(m, overlay) }

// RevertOverlay restores m's overlaid lines from base.
func RevertOverlay(m, base *memory.Memory, overlay []LineWrite) { revertOverlay(m, base, overlay) }

// LegalSet reports whether a survival set respects the class rules
// (epoch-downward closure per core).
func LegalSet(rec *Record, set []int) bool { return legalSet(rec, set) }

// Minimize greedily shrinks a failing survival set while check keeps
// rejecting it and the set stays legal; check returns the complaint ("" =
// image acceptable). See minimize.
func Minimize(rec *Record, survivors []int, check func([]int) string) ([]int, string) {
	return minimize(rec, survivors, check)
}

// NewWitness pins a minimized violation of campaign c for replay.
func NewWitness(c Config, crashAt engine.Cycle, rec *Record, survivors []int, errStr string) *Witness {
	return newWitness(c, crashAt, rec, survivors, errStr)
}
