package engine

// Bind-time work model: per-instruction cost estimates from op kind ×
// shapes, used by the planner to decide which candidate waves are worth
// a parallel dispatch and which to demote first when disjoint placement
// would exceed the arena-growth budget. The constants were fitted from
// single-core batch-8 executes of the fused zoo programs on the default
// kernels when the work model was written (resnet20 ≈ 98 ms over
// ~330 M MACs ≈ 0.30 ns/MAC, vit ≈ 0.25 ns/MAC), so modeled work was
// within ~2x of measured time on that machine — more than enough to
// separate µs-scale GEMMs from ns-scale dispatch overhead.
// BENCH_profile.json (t2c-bench -exp profile) is the live per-op check
// of measured against modeled time. The model only gates scheduling; it
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

// PlanConfig tunes parallelism-aware placement. The zero value disables
// arena growth entirely (serial-plan bytes are a hard ceiling) and
// accepts any wave with positive modeled work; DefaultPlanConfig is
// what NewExecutor uses when no WithPlanConfig option is given.
type PlanConfig struct {
	// ArenaGrowth is the fraction of the serial plan's arena bytes the
	// parallelism-aware plan may add to keep same-wave outputs disjoint
	// (0.25 = up to 25% larger). Waves are demoted cheapest-first until
	// the plan fits, so the bound is always honored.
	ArenaGrowth float64
	// MinWaveNs is the smallest modeled wave work (summed over members)
	// worth a cross-instruction parallel dispatch; below it the pool
	// barrier would cost more than the overlap buys.
	MinWaveNs int64
}

// DefaultPlanConfig allows 25% arena growth and requires ~2 µs of
// modeled work per wave (a pool dispatch plus barrier costs on the
// order of 1 µs).
func DefaultPlanConfig() PlanConfig {
	return PlanConfig{ArenaGrowth: 0.25, MinWaveNs: 2000}
}

// CostModel carries measured-vs-modeled calibration ratios per op kind,
// typically loaded from a committed BENCH_profile.json run. Multiplying
// the bind-time work model by these ratios turns it from a relative
// scheduling heuristic into a wall-clock predictor for the machine the
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
// calibration ratio the SLO scheduler will consume.
type OpWork struct {
	Kind   OpKind
	Instrs int
	WorkNs int64
}

// ModeledOpWork evaluates the bind-time work model for every
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
// kernels execute only the live fraction, so waves formed around (and
// calibration ratios computed against) the dense count would be
// dishonest on pruned models.
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
