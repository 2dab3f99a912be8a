package engine

import (
	"fmt"
	"math"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

// KernelFunc executes one instruction: read the input buffers, write the
// output buffer. idx is the instruction's position in the program —
// kernels use it to cache per-instruction state (tensor headers, shape
// math) across calls via Executor.KernelState, which is how the fast
// kernels reach zero steady-state allocations. Kernels must be
// bit-identical to the corresponding IntLayer.Forward — integer
// arithmetic makes this checkable exactly — and must not retain
// references to the buffers (arena storage is reused).
type KernelFunc func(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor)

// PrepFunc builds per-instruction kernel state at executor bind time:
// prepacked weight panels, epilogue constant vectors, conv geometry,
// scratch reservations. The returned state lands in the
// executor's KernelState slot before the first Execute, so the steady
// state runs with zero shape math and zero allocation.
type PrepFunc func(ex *Executor, idx int, it *Instr) (any, error)

// Registry maps op kinds to kernels (and optional bind-time prep hooks).
// An Executor copies the table it is given, so concurrent servers never
// observe later mutation. A registry additionally carries three
// capability bits: typed (its kernels understand narrow typed buffers,
// so executors plan per-dtype arenas), swar (dense conv/linear may take
// the lane-packed microkernel where the storage pass proves the lane
// bound) and sparse (pruned weights may bind the zero-skipping kernels).
// FastKernels sets all three; installing any custom kernel or prep hook
// clears them, so third-party kernels — which read buffers through the
// `.Data` int64 view — always execute against I64-planned arenas.
type Registry struct {
	kernels map[OpKind]KernelFunc
	preps   map[OpKind]PrepFunc
	typed   bool
	swar    bool
	sparse  bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{kernels: map[OpKind]KernelFunc{}, preps: map[OpKind]PrepFunc{}}
}

// Register installs (or replaces) the kernel for kind. Any prep hook
// registered for kind is kept, so wrapping a kernel (e.g. to count
// calls) does not lose its prepacked state. The registry drops to
// I64-planned buffers: a custom kernel cannot be assumed dtype-aware.
func (r *Registry) Register(kind OpKind, k KernelFunc) {
	r.kernels[kind] = k
	r.typed = false
	r.swar = false
	r.sparse = false
}

// RegisterPrep installs the bind-time prep hook for kind (and, like
// Register, pins the registry to I64 buffers).
func (r *Registry) RegisterPrep(kind OpKind, p PrepFunc) {
	r.preps[kind] = p
	r.typed = false
	r.swar = false
	r.sparse = false
}

// Lookup returns the kernel for kind.
func (r *Registry) Lookup(kind OpKind) (KernelFunc, bool) {
	k, ok := r.kernels[kind]
	return k, ok
}

// lookupPrep returns the prep hook for kind.
func (r *Registry) lookupPrep(kind OpKind) (PrepFunc, bool) {
	p, ok := r.preps[kind]
	return p, ok
}

// Clone returns an independent copy of the registry.
func (r *Registry) Clone() *Registry {
	c := NewRegistry()
	for k, v := range r.kernels {
		c.kernels[k] = v
	}
	for k, v := range r.preps {
		c.preps[k] = v
	}
	c.typed = r.typed
	c.swar = r.swar
	c.sparse = r.sparse
	return c
}

// addShiftClamp is the residual-add epilogue shared by every kernel:
// shift back with round-half-away (when shift > 0) and clamp. It mirrors
// fuse.IntResidual.Forward exactly, rounding with the sign mask of
// intmath.Requantize instead of a branch on the sign of v.
func addShiftClamp(v int64, shift int, half, lo, hi int64) int64 {
	if shift > 0 {
		s := v >> 63
		v = ((((v ^ s) - s + half) >> uint(shift)) ^ s) - s
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// addHalfOf returns the rounding constant of a shift-back.
func addHalfOf(shift int) int64 {
	if shift > 0 {
		return 1 << uint(shift-1)
	}
	return 0
}

// fusedConsts unpacks an instruction's folded epilogue — the optional
// FusedRescale stage and the optional FusedAdd/shift/clamp — into plain
// scalars. It is the single implementation of the fused value pipeline:
// every kernel path (reference, prepacked) finishes elements
// through finish(), so a semantic change cannot drift between them. The
// rescale stage rounds with Requantize unless a fast kernel proved the
// folded rounding for it (foldRescale).
type fusedConsts struct {
	hasRe                bool
	reSfx, reBfx, reHalf int64
	reFrac               uint
	reZero, reLo, reHi   int64
	reRq                 intmath.FoldedRound
	reFolded             bool

	hasAdd       bool
	addShift     int
	addHalf      int64
	addLo, addHi int64
}

func fusedConstsOf(it *Instr) fusedConsts {
	fc := fusedConsts{}
	if re := it.FusedRescale; re != nil {
		fc.hasRe = true
		fc.reHalf, fc.reFrac, fc.reZero, fc.reLo, fc.reHi = re.Consts()
		// Bare rescales apply unified scaling (channel 0), matching
		// MulQuant.ApplyTo with chDim < 0.
		fc.reSfx, fc.reBfx = int64(re.ScaleFx[0]), int64(re.BiasFx[0])
	}
	if it.FusedAdd {
		fc.hasAdd = true
		fc.addShift = it.Shift
		fc.addHalf = addHalfOf(it.Shift)
		fc.addLo, fc.addHi = it.ClampLo, it.ClampHi
	}
	return fc
}

func (fc *fusedConsts) active() bool { return fc.hasRe || fc.hasAdd }

// foldRescale proves the folded rounding for the FusedRescale stage over
// inputs in [lo, hi] — the own stage's clamp range, at most 32 bits wide
// (checkScaler), so only an out-of-range output zero point fails it.
func (fc *fusedConsts) foldRescale(lo, hi int64) {
	if !fc.hasRe {
		return
	}
	tMax, ok := mulExact(max(absOf(lo), absOf(hi)), absOf(fc.reSfx), lo != math.MinInt64)
	tMax, ok = addExact(tMax, absOf(fc.reBfx), ok)
	if ok {
		fc.reRq, fc.reFolded = intmath.FoldRound(fc.reHalf, fc.reFrac, fc.reZero, fc.reLo, fc.reHi, tMax)
	}
}

// finish runs one already-requantized value through the folded epilogue.
// add is indexed by di and read here — before the caller writes dst[di]
// — which is what the planner's in-place placement relies on.
func (fc *fusedConsts) finish(q int64, add []int64, di int) int64 {
	if fc.reFolded {
		q = fc.reRq.Apply(q*fc.reSfx + fc.reBfx)
	} else if fc.hasRe {
		q = intmath.Requantize(q, fc.reSfx, fc.reBfx, fc.reHalf, fc.reFrac, fc.reZero, fc.reLo, fc.reHi)
	}
	if fc.hasAdd {
		q = addShiftClamp(q+add[di], fc.addShift, fc.addHalf, fc.addLo, fc.addHi)
	}
	return q
}

// applyFusedEpilogue finishes an instruction's already-requantized codes
// src through its folded epilogue, writing dst. Every element is read
// (src[i], add[i]) before dst[i] is written, so dst may alias src or
// add.
func applyFusedEpilogue(it *Instr, dst, src, add []int64) {
	fc := fusedConstsOf(it)
	if !fc.active() {
		if &dst[0] != &src[0] {
			copy(dst, src)
		}
		return
	}
	for i, v := range src {
		dst[i] = fc.finish(v, add, i)
	}
}

// fusedAddOperand returns the fused residual branch's codes (nil when
// the instruction carries no FusedAdd).
func fusedAddOperand(it *Instr, in []*tensor.IntTensor) []int64 {
	if !it.FusedAdd {
		return nil
	}
	return in[len(in)-1].Data
}

// ReferenceKernels returns kernels that wrap the interpreter's per-layer
// logic directly (allocating like it does); they are the oracle the fast
// kernels are tested against. They honor fused epilogues, so optimized
// programs can run under the reference registry for parity checks.
func ReferenceKernels() *Registry {
	r := NewRegistry()
	r.Register(OpConv, kernelConvRef)
	r.Register(OpLinear, kernelLinearRef)
	r.Register(OpAvgPool, kernelAvgPool)
	r.Register(OpFlatten, kernelFlattenNop)
	r.Register(OpRescale, kernelRescale)
	r.Register(OpAdd, kernelResAdd)
	registerViTKernels(r)
	return r
}

// kernelConvRef is the reference convolution: the interpreter's direct
// integer conv, then the scaler and the fused epilogue.
func kernelConvRef(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	acc := intmath.Conv2dInt(in[0], it.W, it.InZero, it.P)
	it.Scaler.ApplyTo(acc, acc, 1) // in place: acc is scratch, out may alias the fused branch
	applyFusedEpilogue(it, out.Data, acc.Data, fusedAddOperand(it, in))
}

// kernelLinearRef is the reference linear layer: zero-point shift, the
// interpreter's integer GEMM over [rows, K], then the scaler and the
// fused epilogue.
func kernelLinearRef(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	xs := in[0]
	if it.InZero != 0 {
		xs = in[0].Clone()
		for i := range xs.Data {
			xs.Data[i] -= it.InZero
		}
	}
	if len(xs.Shape) != 2 {
		k := xs.Shape[len(xs.Shape)-1]
		xs = xs.Reshape(xs.Numel()/k, k)
	}
	acc := intmath.MatMulIntT(xs, it.W)
	it.Scaler.ApplyTo(acc, acc, 1)
	applyFusedEpilogue(it, out.Data, acc.Data, fusedAddOperand(it, in))
}

// FastKernels returns the default kernel set: conv and linear bind
// prepacked state at executor construction (weight panels, conv
// geometry, epilogue constant vectors) and run tiled integer GEMM with
// per-slot scratch, so steady-state execution does no shape math and no
// allocation. Grouped/depthwise convolution takes a dedicated
// register-blocked direct kernel. The set is dtype-aware: executors plan
// narrow per-dtype arenas, conv/linear run the int8-panel GEMM with
// int32 accumulation where the program's value ranges permit, and odd
// widths bind the int64-accumulating instantiation of the same GEMM per
// instruction, over the same narrow storage.
// Where the storage pass additionally proves the SWAR lane bound, dense
// conv/linear run the lane-packed microkernel (two output channels per
// 64-bit accumulator word over byte-gathered activation panels). The
// attention matmul runs on the same panel GEMM at the accumulator width
// its operand ranges prove, and the softmax as a typed row kernel.
func FastKernels() *Registry {
	r := ReferenceKernels().Clone()
	r.Register(OpConv, kernelConvPacked)
	r.RegisterPrep(OpConv, prepConv)
	r.Register(OpLinear, kernelLinearPacked)
	r.RegisterPrep(OpLinear, prepLinear)
	r.RegisterPrep(OpMatMul, prepMatMul)
	r.Register(OpSoftmax, kernelSoftmaxTyped)
	r.RegisterPrep(OpSoftmax, prepSoftmax)
	r.typed = true
	r.swar = true
	r.sparse = true
	return r
}

var defaultRegistry = FastKernels()

// DefaultKernels returns the process-wide default kernel set.
func DefaultKernels() *Registry { return defaultRegistry }

// elemChunk is the staging size of the chunked typed elementwise paths:
// narrow operands are widened into an int64 scratch chunk, the epilogue
// runs over the chunk, and the result narrows back into the output —
// three passes over a cache-resident block, which keeps the dtype
// dispatch out of the per-element loop.
const elemChunk = 4096

// allI64 reports whether an instruction's operands and output are all
// stored as legacy I64 buffers, enabling the pre-typed fast paths.
func allI64(in []*tensor.IntTensor, out *tensor.IntTensor) bool {
	if out.DType != tensor.I64 {
		return false
	}
	for _, t := range in {
		if t.DType != tensor.I64 {
			return false
		}
	}
	return true
}

// kernelAvgPool mirrors fuse.IntAvgPool.Forward (round-half-away integer
// mean), writing into the planned output.
func kernelAvgPool(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	if !allI64(in, out) {
		kernelAvgPoolTyped(ex, it, in[0], out)
		return
	}
	x := in[0]
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if it.Kernel == 0 {
		cnt := int64(h * w)
		for i := 0; i < n*c; i++ {
			var s int64
			for _, v := range x.Data[i*h*w : (i+1)*h*w] {
				s += v
			}
			out.Data[i] = intmath.RoundDiv(s, cnt)
		}
		return
	}
	k, st := it.Kernel, it.Stride
	if st <= 0 {
		st = k
	}
	oh, ow := (h-k)/st+1, (w-k)/st+1
	cnt := int64(k * k)
	for i := 0; i < n*c; i++ {
		plane := x.Data[i*h*w : (i+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s int64
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						s += plane[(oy*st+ky)*w+(ox*st+kx)]
					}
				}
				out.Data[i*oh*ow+oy*ow+ox] = intmath.RoundDiv(s, cnt)
			}
		}
	}
}

// kernelAvgPoolTyped pools narrow buffers one (sample, channel) plane at
// a time: widen the plane into int64 scratch, run the identical integer
// mean, and narrow the pooled plane into the output (means never leave
// the input's value range, so the store is always representable).
func kernelAvgPoolTyped(ex *Executor, it *Instr, x, out *tensor.IntTensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	k, st := it.Kernel, it.Stride
	oh, ow := 1, 1
	if k > 0 {
		if st <= 0 {
			st = k
		}
		oh, ow = (h-k)/st+1, (w-k)/st+1
	}
	plane := ex.scratch(2, h*w)
	pooled := ex.scratch(3, oh*ow)
	for i := 0; i < n*c; i++ {
		x.ReadInt64(plane, i*h*w)
		if k == 0 {
			cnt := int64(h * w)
			var s int64
			for _, v := range plane {
				s += v
			}
			pooled[0] = intmath.RoundDiv(s, cnt)
		} else {
			cnt := int64(k * k)
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s int64
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							s += plane[(oy*st+ky)*w+(ox*st+kx)]
						}
					}
					pooled[oy*ow+ox] = intmath.RoundDiv(s, cnt)
				}
			}
		}
		out.WriteInt64(pooled, i*oh*ow)
	}
}

// kernelFlattenNop: flatten outputs alias their input storage; the
// executor binds both buffers to the same arena words at prepare time.
func kernelFlattenNop(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
}

// kernelRescale applies the bare MulQuant stage; with a fused residual
// add (the common identity-shortcut fold) the whole block epilogue —
// rescale, add, shift-back, clamp — is one read-then-write pass, so the
// planner may alias the output onto either dying input. Narrow buffers
// take the chunked widen→compute→narrow staging path: the output chunk
// is stored only after its input (and fused-branch) chunk is fully read,
// which preserves the in-place aliasing contract at equal dtypes.
func kernelRescale(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	if !allI64(in, out) {
		kernelRescaleTyped(ex, it, in, out)
		return
	}
	if it.FusedRescale == nil && !it.FusedAdd {
		it.Scaler.ApplyTo(out, in[0], -1)
		return
	}
	half, frac, zero, lo, hi := it.Scaler.Consts()
	sfx, bfx := int64(it.Scaler.ScaleFx[0]), int64(it.Scaler.BiasFx[0])
	fc := fusedConstsOf(it)
	add := fusedAddOperand(it, in)
	for i, v := range in[0].Data {
		q := intmath.Requantize(v, sfx, bfx, half, frac, zero, lo, hi)
		out.Data[i] = fc.finish(q, add, i)
	}
}

// kernelRescaleTyped is kernelRescale over typed storage. Over input
// storage of at most 32 bits both rescale stages round with the folded
// rounding where its proof holds (every code fits the storage range).
func kernelRescaleTyped(ex *Executor, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	half, frac, zero, lo, hi := it.Scaler.Consts()
	sfx, bfx := int64(it.Scaler.ScaleFx[0]), int64(it.Scaler.BiasFx[0])
	fc := fusedConstsOf(it)
	fc.foldRescale(lo, hi)
	var rq intmath.FoldedRound
	folded := false
	if d := in[0].DType; d != tensor.I64 {
		inLo, inHi := d.Range()
		rq, folded = intmath.FoldRound(half, frac, zero, lo, hi, max(-inLo, inHi)*absOf(sfx)+absOf(bfx))
	}
	var add *tensor.IntTensor
	if it.FusedAdd {
		add = in[len(in)-1]
	}
	n := out.Numel()
	a := ex.scratch(2, elemChunk)
	b := ex.scratch(3, elemChunk)
	for c0 := 0; c0 < n; c0 += elemChunk {
		m := n - c0
		if m > elemChunk {
			m = elemChunk
		}
		av := a[:m]
		in[0].ReadInt64(av, c0)
		var bv []int64
		if add != nil {
			bv = b[:m]
			add.ReadInt64(bv, c0)
		}
		if folded {
			for i, v := range av {
				av[i] = fc.finish(rq.Apply(v*sfx+bfx), bv, i)
			}
		} else {
			for i, v := range av {
				av[i] = fc.finish(intmath.Requantize(v, sfx, bfx, half, frac, zero, lo, hi), bv, i)
			}
		}
		out.WriteInt64(av, c0)
	}
}

// kernelResAdd mirrors fuse.IntResidual's add/shift-back/clamp epilogue.
func kernelResAdd(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	b, s := in[0], in[1]
	half := addHalfOf(it.Shift)
	if !allI64(in, out) {
		n := out.Numel()
		av := ex.scratch(2, elemChunk)
		bv := ex.scratch(3, elemChunk)
		for c0 := 0; c0 < n; c0 += elemChunk {
			m := n - c0
			if m > elemChunk {
				m = elemChunk
			}
			b.ReadInt64(av[:m], c0)
			s.ReadInt64(bv[:m], c0)
			for i := 0; i < m; i++ {
				av[i] = addShiftClamp(av[i]+bv[i], it.Shift, half, it.ClampLo, it.ClampHi)
			}
			out.WriteInt64(av[:m], c0)
		}
		return
	}
	for i := range b.Data {
		out.Data[i] = addShiftClamp(b.Data[i]+s.Data[i], it.Shift, half, it.ClampLo, it.ClampHi)
	}
}

// checkKernels verifies every instruction kind in p has a kernel.
func checkKernels(p *Program, r *Registry) error {
	for _, it := range p.Instrs {
		if _, ok := r.Lookup(it.Kind); !ok {
			return fmt.Errorf("engine: no kernel registered for op %q", it.Kind)
		}
	}
	return nil
}
