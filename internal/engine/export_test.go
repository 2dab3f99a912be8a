package engine

// Capability bits FastKernelsWithout clears (see Registry).
const (
	CapTyped  = 1 << iota // narrow typed arenas; clearing it clears all three
	CapSwar               // SWAR lane-packed dense conv/linear
	CapSparse             // zero-skipping and N:M kernels on pruned weights
)

// FastKernelsWithout returns FastKernels with the given capability bits
// cleared, forcing onto every instruction a path production picks only
// per instruction: without CapTyped the int64-accumulating instantiation
// of the conv/linear drivers over I64 arenas (the odd-width choice),
// without CapSwar the int32 panel (the failed-lane-bound fallback),
// without CapSparse the dense kernels (the below-minSkipSparsity
// choice). The parity suites bind these variants against the reference
// registry.
func FastKernelsWithout(caps int) *Registry {
	r := FastKernels()
	if caps&CapTyped != 0 {
		caps |= CapSwar | CapSparse
		r.typed = false
	}
	if caps&CapSwar != 0 {
		r.swar = false
	}
	if caps&CapSparse != 0 {
		r.sparse = false
	}
	return r
}

// Enqueued reports how many requests have ever entered the server's
// queue. Together with QueueDepth it tells a test that everything it
// sent was pushed and popped — into the batcher's open batch, when every
// worker is held.
func (s *Server) Enqueued() uint64 {
	s.q.mu.Lock()
	defer s.q.mu.Unlock()
	return s.q.seq
}

// TilesAt reports, in KernelChoices order, the site/row tile each
// conv/linear/matmul instruction runs with at batch n (0 for states
// without a tiled GEMM) — the per-n counterpart of KernelChoice.TileM,
// so a test can compare it with a bind at batch n.
func (ex *Executor) TilesAt(n int) []int {
	var out []int
	for _, c := range ex.KernelChoices() {
		tm := 0
		if st, ok := ex.states[c.Index].(coreState); ok {
			_, tms := st.boundCore()
			tm = tms[n]
		}
		out = append(out, tm)
	}
	return out
}

// FoldedRounding reports, in KernelChoices order, whether each
// conv/linear/matmul state binds the folded rounding: its own rescale
// and, when it carries one, its fused rescale stage.
func (ex *Executor) FoldedRounding() []bool {
	var out []bool
	for _, c := range ex.KernelChoices() {
		var e *epi
		switch st := ex.states[c.Index].(type) {
		case *convPackT[int32]:
			e = &st.epi
		case *convPackT[int64]:
			e = &st.epi
		case *gconvPackT[int32]:
			e = &st.epi
		case *gconvPackT[int64]:
			e = &st.epi
		case *linPackT[int32]:
			e = &st.epi
		case *linPackT[int64]:
			e = &st.epi
		case *mmPackT[int32]:
			e = &st.epi
		case *mmPackT[int64]:
			e = &st.epi
		}
		out = append(out, e != nil && e.folded && (!e.fc.hasRe || e.fc.reFolded))
	}
	return out
}
