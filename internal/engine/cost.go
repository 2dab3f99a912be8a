package engine

// Work model: per-instruction cost estimates from op kind × shapes.
// Server.EstimateCost sums it over a batch to predict the batch's
// wall-clock time for the deadline-aware batcher, and the
// per-instruction record (Executor.Explain, Server.Explain) reports it
// per sample beside the traced measurement. The constants were
// fitted from single-core batch-8 executes of the fused zoo programs on
// the default kernels when the work model was written (resnet20 ≈ 98 ms
// over ~330 M MACs ≈ 0.30 ns/MAC, vit ≈ 0.25 ns/MAC), so modeled work
// was within ~2x of measured time on that machine. The model never
// affects values.

import "torch2chip/internal/tensor"

const (
	// nsPerMac is the modeled cost of one multiply-accumulate on the
	// prepacked integer GEMM paths (fixed-point: 0.3 ns ≈ 3/10).
	macNsNum, macNsDen = 3, 10
	// nsPerElem is the modeled cost of one element of a non-GEMM
	// instruction (requantize funnels, LUT lookups, copies).
	elemNs = 1
)

// instrDenseMacs counts one GEMM instruction's dense multiply-
// accumulates at the planned shapes (0 for non-GEMM kinds).
func instrDenseMacs(it *Instr, shapes [][]int) int64 {
	switch it.Kind {
	case OpConv:
		// W is [o, c/groups, kH, kW]; out is [n, o, oh, ow].
		out := shapes[it.Out]
		return int64(tensor.Numel(out)) * int64(tensor.Numel(it.W.Shape)) / int64(it.W.Shape[0])
	case OpLinear:
		// W is [o, k]; rows = numel(in)/k.
		in := shapes[it.In[0]]
		return int64(tensor.Numel(in)) * int64(it.W.Shape[0])
	case OpMatMul:
		// [b, m, k] × [b, k, n] (or transposed): b·m·k·n.
		a, out := shapes[it.In[0]], shapes[it.Out]
		return int64(tensor.Numel(out)) * int64(a[len(a)-1])
	}
	return 0
}

// instrWorkNs models one instruction's serial execution time in
// nanoseconds from its kind and planned shapes. Conv/linear MACs are
// scaled by the instruction's effective-MAC fraction — the sparse-bound
// kernels execute only the live fraction, so a dense count would
// overstate pruned models.
func (p *Program) instrWorkNs(i int, shapes [][]int) int64 {
	it := &p.Instrs[i]
	macs := instrDenseMacs(it, shapes)
	if macs == 0 {
		return int64(tensor.Numel(shapes[it.Out])) * elemNs
	}
	if it.Kind == OpConv || it.Kind == OpLinear {
		num, den := p.sparseEff(i)
		macs = macs * num / den
	}
	return macs * macNsNum / macNsDen
}
