package persist

// The annotated threads of the litmus corpus (internal/litmus), written
// out as straight-line programs: each commit store names the stores that
// are durably ordered before it (a flush of their line, then a fence), so
// the annotations are exactly the Px86 durably-ordered-before relation.
// v holds each test variable's line address, in Test.Vars order.

// mp+fence, thread 0: clwb x; sfence before the flag store.
func litmusMPFence(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	Store64(e, x, 1)
	e.Flush(x)
	e.Fence()
	Store64(e, y, 1) //bbbvet:commit-store x
}

// 2+2w+fence, thread 0.
func litmus2p2wFence0(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	Store64(e, x, 1)
	e.Flush(x)
	e.Fence()
	Store64(e, y, 2) //bbbvet:commit-store x
}

// 2+2w+fence, thread 1.
func litmus2p2wFence1(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	Store64(e, y, 1)
	e.Flush(y)
	e.Fence()
	Store64(e, x, 2) //bbbvet:commit-store y
}

// wb+fence, thread 0: z durable implies the final x and y are.
func litmusWBFence(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	z := v[2]
	Store64(e, x, 1)
	Store64(e, y, 1)
	Store64(e, x, 2)
	e.Flush(x)
	e.Flush(y)
	e.Fence()
	Store64(e, z, 1) //bbbvet:commit-store x y
}

// mp3+fence, thread 0: clwb;sfence between each link of the chain.
func litmusMP3Fence(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	z := v[2]
	Store64(e, x, 1)
	e.Flush(x)
	e.Fence()
	Store64(e, y, 1) //bbbvet:commit-store x
	e.Flush(y)
	e.Fence()
	Store64(e, z, 1) //bbbvet:commit-store x y
}

// 2epoch-line, thread 0: one line dirtied in two consecutive epochs.
func litmus2EpochLine(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	Store64(e, x, 1)
	e.Flush(x)
	e.Fence()
	Store64(e, x, 2) //bbbvet:commit-store x
	e.Flush(x)
	e.Fence()
	Store64(e, y, 1) //bbbvet:commit-store x
}

// cas-mp+fence, thread 0: the flag is published by a CAS.
func litmusCASMPFence(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	Store64(e, x, 1)
	e.Flush(x)
	e.Fence()
	e.CompareAndSwap(y, 8, 0, 1) //bbbvet:commit-store x
}

// mp+flush, thread 0, annotated as if it published x: clwb without sfence
// orders nothing, so the contract fails.
func litmusMPFlush(e Env, v []Addr) {
	x := v[0]
	y := v[1]
	Store64(e, x, 1)
	e.Flush(x)
	//bbbvet:commit-store x
	Store64(e, y, 1) // want "commit store: dependee x is flushed but not yet fenced on some path to this publish"
}
