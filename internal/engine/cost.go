package engine

// Work model: per-instruction cost estimates from op kind × shapes.
// Its consumer is Server.EstimateCost, which scales the modeled work by
// a CostModel's per-op calibration ratios to predict a batch's
// wall-clock time for the deadline-aware batcher. The constants were
// fitted from single-core batch-8 executes of the fused zoo programs on
// the default kernels when the work model was written (resnet20 ≈ 98 ms
// over ~330 M MACs ≈ 0.30 ns/MAC, vit ≈ 0.25 ns/MAC), so modeled work
// was within ~2x of measured time on that machine. BENCH_profile.json
// (t2c-bench -exp profile) is the live per-op check of measured against
// modeled time and the source of the calibration ratios. The model
// never affects values.

import "torch2chip/internal/tensor"

const (
	// nsPerMac is the modeled cost of one multiply-accumulate on the
	// prepacked integer GEMM paths (fixed-point: 0.3 ns ≈ 3/10).
	macNsNum, macNsDen = 3, 10
	// nsPerElem is the modeled cost of one element of a non-GEMM
	// instruction (requantize funnels, LUT lookups, copies).
	elemNs = 1
)

// CostModel carries measured-vs-modeled calibration ratios per op kind,
// typically loaded from a committed BENCH_profile.json run. Multiplying
// the work model by these ratios turns it from a relative cost
// estimate into a wall-clock predictor for the machine the
// profile was measured on. A nil model (and any op kind missing from
// Ratios) models the ratio as 1.
type CostModel struct {
	Ratios map[OpKind]float64
}

func (c *CostModel) ratio(k OpKind) float64 {
	if c == nil || c.Ratios == nil {
		return 1
	}
	if r, ok := c.Ratios[k]; ok && r > 0 {
		return r
	}
	return 1
}

// OpWork is the work model's aggregate for one op kind over a program:
// how many instructions of the kind execute per run and the summed
// modeled serial nanoseconds. The profile experiment joins this against
// measured per-instruction spans to produce the measured-vs-modeled
// calibration ratio EstimateCost consumes.
type OpWork struct {
	Kind   OpKind
	Instrs int
	WorkNs int64
}

// ModeledOpWork evaluates the work model for every
// instruction at inShape (full shape including the batch dimension) and
// aggregates it per op kind, in first-appearance order.
func (p *Program) ModeledOpWork(inShape []int) ([]OpWork, error) {
	shapes, err := p.InferShapes(inShape)
	if err != nil {
		return nil, err
	}
	idx := map[OpKind]int{}
	var out []OpWork
	for i := range p.Instrs {
		it := &p.Instrs[i]
		j, ok := idx[it.Kind]
		if !ok {
			j = len(out)
			idx[it.Kind] = j
			out = append(out, OpWork{Kind: it.Kind})
		}
		out[j].Instrs++
		out[j].WorkNs += p.instrWorkNs(i, shapes)
	}
	return out, nil
}

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
// kernels execute only the live fraction, so calibration ratios
// computed against the dense count would be dishonest on pruned models.
func (p *Program) instrWorkNs(i int, shapes [][]int) int64 {
	it := &p.Instrs[i]
	macs := instrDenseMacs(it, shapes)
	if macs == 0 {
		return int64(tensor.Numel(shapes[it.Out])) * elemNs
	}
	if it.Kind == OpConv || it.Kind == OpLinear {
		_, num, den := p.sparseEff(i)
		macs = macs * num / den
	}
	return macs * macNsNum / macNsDen
}
