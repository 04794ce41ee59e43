// Deep helper chains: a store twelve helpers down must reach the caller's
// summary however the helpers are ordered in the file. The chain is
// declared caller-first, so summaries computed declaration by declaration
// climb one helper per round; only a callee-before-caller order settles
// every depth.
package persist

func deepChainBroken(e Env, rec, tail Addr, p Params) {
	chain1(e, rec, 42)
	//bbbvet:commit-store rec
	Store64(e, tail, 1) // want "dependee rec is dirty \\(not yet flushed\\) on some path to this publish"
	barrier(e, p, tail)
}

// The 2-deep control: chain11 -> chain12 -> Store64.
func shallowChainBroken(e Env, rec, tail Addr, p Params) {
	chain11(e, rec, 42)
	//bbbvet:commit-store rec
	Store64(e, tail, 1) // want "dependee rec is dirty \\(not yet flushed\\) on some path to this publish"
	barrier(e, p, tail)
}

func chain1(e Env, a Addr, v uint64) { chain2(e, a, v) }

func chain2(e Env, a Addr, v uint64) { chain3(e, a, v) }

func chain3(e Env, a Addr, v uint64) { chain4(e, a, v) }

func chain4(e Env, a Addr, v uint64) { chain5(e, a, v) }

func chain5(e Env, a Addr, v uint64) { chain6(e, a, v) }

func chain6(e Env, a Addr, v uint64) { chain7(e, a, v) }

func chain7(e Env, a Addr, v uint64) { chain8(e, a, v) }

func chain8(e Env, a Addr, v uint64) { chain9(e, a, v) }

func chain9(e Env, a Addr, v uint64) { chain10(e, a, v) }

func chain10(e Env, a Addr, v uint64) { chain11(e, a, v) }

func chain11(e Env, a Addr, v uint64) { chain12(e, a, v) }

func chain12(e Env, a Addr, v uint64) { Store64(e, a, v) }
