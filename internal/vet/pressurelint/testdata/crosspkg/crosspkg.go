// Package crosspkg is the pressurelint fixture for the package boundary:
// helper summaries stop there, so a program that hands its Env to another
// package's storing helper must certify as unbounded (with a finding
// naming the callee), never as zero pressure. The file is pinned to the
// strict discipline, so the unbounded bound is a diagnostic here.
//
//bbbvet:scheme pmem
package crosspkg

import (
	"bbb/internal/cpu"
	"bbb/internal/pds"
)

var m *pds.Map

// putElsewhere stores only through pds.Map.Put, which no summary here
// covers.
func putElsewhere(e cpu.Env) { // want "persist pressure is statically unbounded under the pmem discipline"
	m.Put(e, 0, 1, 2)
}

// viaLocalHelper reaches the same call through a helper of this package:
// the helper's summary carries the boundary finding to its caller.
func viaLocalHelper(e cpu.Env) { // want "persist pressure is statically unbounded under the pmem discipline"
	put(e, 3)
}

func put(e cpu.Env, key uint64) {
	m.Put(e, 0, key, key)
	cpu.Store64(e, 0x10000, key)
}
