package engine

// Prepacked kernels: NewExecutor precomputes everything a conv/linear
// instruction needs that does not depend on the input values — weight
// panels blocked for the GEMM microkernel, expanded requantization
// constants with the zero-point correction folded into the bias,
// fused-epilogue constants, and each conv's
// geometry — so the steady state is an im2col gather whose addresses come
// from stride, padding and kernel counters, feeding a register-blocked
// integer GEMM with the whole epilogue applied while the tile is hot.
//
// There is one driver per layout — dense conv (convPackT), grouped or
// depthwise conv (gconvPackT), linear (linPackT) and the batched
// attention matmul (mmPackT, vit_kernels.go) — generic over the
// accumulator width C. The dense conv and linear drivers run one of
// several GEMM cores (gemmCore), chosen once per instruction by coreFor:
// int32 or int64 panels, the sparse int32 cores, or the SWAR cores
// (swar.go), which only bind at int32. The grouped driver has no GEMM:
// it widens each group slab into a zero-padded copy and runs a direct
// loop over it. Activations stay in their storage dtype and widen to C
// at the gather (or bias to bytes, for SWAR); weights are packed at bind
// time. The int32 instantiation binds where Program.storage() proves the
// weights fit int8 and K·|a|max·|w|max fits int32; every other
// instruction and every registry that plans I64 arenas binds the int64
// instantiation, which loads and stores any storage dtype. The epilogue
// widens each finished accumulator a to int64 once and requantizes
// a·sfx + c, where the bind has folded every per-channel correction (the
// zero point's InZero·Σw, and on the SWAR cores the activation bias's
// ba·Σw) into the bias c: exact mod 2⁶⁴ for any values. Where the bind
// proves the product's range (|a| ≤ 2³¹ at int32, int16 scales, the
// exact c and output zero point), the rounding is one signed add
// (intmath.FoldedRound); elsewhere it is intmath.Requantize over the same
// bias. Then the fused epilogue runs, and the result narrows into the
// output buffer. Integer addition at either width is exact below
// overflow, so every code is bit-identical to the reference kernels and
// the IntModel interpreter.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

// panelW is the output-channel width of a packed weight panel: the
// microkernel keeps panelW independent accumulator chains per site pair,
// which is what hides the multiply latency.
const panelW = 4

// accum is the accumulator width of a conv/linear driver.
type accum interface{ int32 | int64 }

// isWide reports whether C is the int64 instantiation.
func isWide[C accum]() bool {
	var z C
	_, ok := any(z).(int64)
	return ok
}

// accMax is the |a| bound every accumulator of the C instantiation
// obeys: 2³¹ at int32; none (0) at int64, whose I64 arenas accept any
// input code.
func accMax[C accum]() int64 {
	if isWide[C]() {
		return 0
	}
	return int32AccMax
}

// epi holds an instruction's fully-expanded requantization pipeline:
// own scaler (per channel) with every per-channel correction folded into
// its bias, plus the shared folded-epilogue constants. The accumulator a
// a state hands the epilogue differs from the true dot product by a
// per-channel constant, corr = z·Σw (z the input zero point, plus the
// activation bias on the SWAR cores, which sum biased bytes). Since
// (a − corr)·sfx + bfx and a·sfx + c with c = bfx − corr·sfx are the same
// number mod 2⁶⁴, the fold is exact for any values, and every element
// requantizes a·sfx + c. Where the bind proves |a·sfx + c| + |hz| < 2⁶²
// (folded), the rounding is intmath.FoldedRound's one signed add;
// otherwise intmath.Requantize over the same folded bias.
type epi struct {
	sfx, c []int64 // own scale and folded bias, expanded per output channel
	rq     intmath.FoldedRound
	folded bool
	half   int64
	frac   uint
	zero   int64
	lo, hi int64
	fc     fusedConsts
}

// int32AccMax bounds |a| for every accumulator of an int32 instantiation.
const int32AccMax = 1 << 31

// newEpi expands instruction it's scaler over o channels, folding the
// correction z·Σw of each row of the [o, k] weights w (nil when the
// accumulator needs none) into the bias, and proves the folded rounding
// for accumulators bounded by |a| ≤ aMax (0: no bound, keep Requantize).
func newEpi(it *Instr, o int, w []int64, z, aMax int64) epi {
	e := epi{fc: fusedConstsOf(it)}
	e.sfx, e.c = it.Scaler.Expand(o)
	e.half, e.frac, e.zero, e.lo, e.hi = it.Scaler.Consts()
	// The fold wraps like the accumulators do; exact records that no
	// step overflowed, so tMax bounds |a·sfx + c| over every channel.
	tMax, exact := int64(0), aMax > 0
	k := len(w) / o
	for oc, sfx := range e.sfx {
		sum, ok := int64(0), true
		for _, v := range w[oc*k : (oc+1)*k] {
			sum, ok = addExact(sum, v, ok)
		}
		corr, ok := mulExact(z, sum, ok)
		cs, ok := mulExact(corr, sfx, ok)
		e.c[oc], ok = addExact(e.c[oc], -cs, ok && cs != math.MinInt64)
		at, ok := mulExact(aMax, absOf(sfx), ok)
		t, ok := addExact(at, absOf(e.c[oc]), ok && e.c[oc] != math.MinInt64)
		exact = exact && ok
		tMax = max(tMax, t)
	}
	if exact {
		e.rq, e.folded = intmath.FoldRound(e.half, e.frac, e.zero, e.lo, e.hi, tMax)
	}
	e.fc.foldRescale(e.lo, e.hi)
	return e
}

// requant is the unproven fallback: Requantize over the folded bias.
func (e *epi) requant(a, sfx, c int64) int64 {
	return intmath.Requantize(a, sfx, c, e.half, e.frac, e.zero, e.lo, e.hi)
}

// addExact returns a+b and ok unless the sum overflows int64.
func addExact(a, b int64, ok bool) (int64, bool) {
	s := a + b
	return s, ok && (a^s)&(b^s) >= 0
}

// mulExact returns a·b and ok unless the product overflows int64.
func mulExact(a, b int64, ok bool) (int64, bool) {
	p := a * b
	return p, ok && (a == 0 || (p/a == b && !(a == -1 && b == math.MinInt64)))
}

// absOf is |v| (callers rule out math.MinInt64).
func absOf(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// finishSeg finishes one channel's accumulator row — requantize over the
// folded bias, fused epilogue — storing straight into the typed output
// segment (no int64 staging pass). bv is the widened fused-branch chunk
// aligned with dst; it is fully read before dst is written, which
// preserves the planner's same-dtype aliasing contract.
func finishSeg[O tensor.Elem, C accum](dst []O, accRow []C, bv []int64, e *epi, oc int) {
	// The requantize constants are copied out of e once: a store to dst
	// may alias *e as far as the compiler knows, so reading e's fields in
	// the loop would reload them per element.
	sfx, c, rq := e.sfx[oc], e.c[oc], e.rq
	dst = dst[:len(accRow)]
	switch {
	case !e.folded:
		for i, a := range accRow {
			dst[i] = O(e.fc.finish(e.requant(int64(a), sfx, c), bv, i))
		}
	case e.fc.active():
		for i, a := range accRow {
			dst[i] = O(e.fc.finish(rq.Apply(int64(a)*sfx+c), bv, i))
		}
	default:
		for i, a := range accRow {
			dst[i] = O(rq.Apply(int64(a)*sfx + c))
		}
	}
}

// finishSegOut dispatches finishSeg on the output storage dtype (one
// switch per channel segment, monomorphized element loops).
func finishSegOut[C accum](out *tensor.IntTensor, off int, accRow []C, bv []int64, e *epi, oc int) {
	m := len(accRow)
	switch out.DType {
	case tensor.I8:
		finishSeg(out.I8[off:off+m], accRow, bv, e, oc)
	case tensor.U8:
		finishSeg(out.U8[off:off+m], accRow, bv, e, oc)
	case tensor.I16:
		finishSeg(out.I16[off:off+m], accRow, bv, e, oc)
	case tensor.U16:
		finishSeg(out.U16[off:off+m], accRow, bv, e, oc)
	case tensor.I32:
		finishSeg(out.I32[off:off+m], accRow, bv, e, oc)
	default:
		finishSeg(out.Data[off:off+m], accRow, bv, e, oc)
	}
}

// finishRow is finishSeg's row-major twin: one row of the linear's
// [rows, o] accumulator tile, with the per-channel constants running
// along the row. bv is the widened fused-branch row, read before the
// aliased dst element is written.
func finishRow[O tensor.Elem, C accum](dst []O, accRow []C, bv []int64, e *epi) {
	sfx, c, rq := e.sfx[:len(accRow)], e.c[:len(accRow)], e.rq
	dst = dst[:len(accRow)]
	switch {
	case !e.folded:
		for oc, a := range accRow {
			dst[oc] = O(e.fc.finish(e.requant(int64(a), sfx[oc], c[oc]), bv, oc))
		}
	case e.fc.active():
		for oc, a := range accRow {
			dst[oc] = O(e.fc.finish(rq.Apply(int64(a)*sfx[oc]+c[oc]), bv, oc))
		}
	default:
		for oc, a := range accRow {
			dst[oc] = O(rq.Apply(int64(a)*sfx[oc] + c[oc]))
		}
	}
}

// finishRows finishes a row tile acc [m][o] into the typed output rows
// r0.., widening each fused-branch row into bv (len o) first.
func finishRows[O tensor.Elem, C accum](dst []O, r0 int, acc []C, add *tensor.IntTensor, bv []int64, e *epi) {
	o := len(e.sfx)
	for i := 0; i < len(acc)/o; i++ {
		off := (r0 + i) * o
		var bvv []int64
		if add != nil {
			bvv = bv[:o]
			add.ReadInt64(bvv, off)
		}
		finishRow(dst[off:off+o], acc[i*o:(i+1)*o], bvv, e)
	}
}

// finishRowsOut dispatches finishRows on the output storage dtype (one
// switch per row tile).
func finishRowsOut[C accum](out *tensor.IntTensor, r0 int, acc []C, add *tensor.IntTensor, bv []int64, e *epi) {
	switch out.DType {
	case tensor.I8:
		finishRows(out.I8, r0, acc, add, bv, e)
	case tensor.U8:
		finishRows(out.U8, r0, acc, add, bv, e)
	case tensor.I16:
		finishRows(out.I16, r0, acc, add, bv, e)
	case tensor.U16:
		finishRows(out.U16, r0, acc, add, bv, e)
	case tensor.I32:
		finishRows(out.I32, r0, acc, add, bv, e)
	default:
		finishRows(out.Data, r0, acc, add, bv, e)
	}
}

// packPanels blocks a [o, k] row-major weight matrix into panels of
// panelW output channels laid out [panel][k][panelW], so the microkernel
// reads panelW weights contiguously per reduction step. Channels beyond
// o are zero-padded. Weights are widened to C once here, so the GEMM
// multiplies without per-element sign extension.
func packPanels[C accum](w []int64, o, k int) []C {
	np := (o + panelW - 1) / panelW
	out := make([]C, np*k*panelW)
	for pb := 0; pb < np; pb++ {
		for j := 0; j < k; j++ {
			for r := 0; r < panelW; r++ {
				oc := pb*panelW + r
				if oc < o {
					out[(pb*k+j)*panelW+r] = C(w[oc*k+j])
				}
			}
		}
	}
	return out
}

// packRows converts a row-major [o, k] weight matrix to a flat C slab
// (the grouped/depthwise kernel walks whole rows).
func packRows[C accum](w []int64) []C {
	out := make([]C, len(w))
	for i, v := range w {
		out[i] = C(v)
	}
	return out
}

// sharedPack is the shape-independent part of an instruction's
// prepacked state — weight panels and the expanded epilogue constants
// with the zero-point correction folded in. It is built once per
// (instruction, variant) and shared (read-only) by every executor bound
// to the program.
type sharedPack struct {
	wp  any       // []int32 or []int64 panels (dense) or rows (grouped), at the accumulator width
	sw  *swarPack // SWAR lane-packed weights and activation bias
	epi epi
}

// sharedKey identifies a shared pack: the instruction plus which variant
// — int32 panels, int64 panels (wide) or SWAR lane words — since one
// program can serve executors of all kinds concurrently (e.g. the
// zoo-parity tests binding the typed and the I64 registries against one
// program). Weights are not part of the key: a Program is immutable,
// and a reload with other weights is another Program with its own
// cache.
type sharedKey struct {
	idx  int
	wide bool
	swar bool
}

// packCache is the per-Program store of shared prepacked state. A
// server's workers build executors lazily and concurrently, so access is
// mutex-guarded; everything handed out is immutable after construction.
type packCache struct {
	mu     sync.Mutex
	shared map[sharedKey]*sharedPack
}

// sharedFor returns (building on first use) the shared pack for key.
func (pc *packCache) sharedFor(key sharedKey, build func() *sharedPack) *sharedPack {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.shared == nil {
		pc.shared = map[sharedKey]*sharedPack{}
	}
	if s, ok := pc.shared[key]; ok {
		return s
	}
	s := build()
	pc.shared[key] = s
	return s
}

// convGeom is a conv's im2col geometry: c×h×w input planes, a kH×kW
// kernel, stride and padding, the oh×ow output, and the interior output
// rows [oyLo, oyHi) and columns [oxLo, oxHi) whose taps are all in
// bounds. The gathers compute every tap's address from it, as an
// accelerator's address generator does from its stride, padding and
// kernel counters.
type convGeom struct {
	c, h, w, kH, kW        int
	stride, pad, oh, ow    int
	oyLo, oyHi, oxLo, oxHi int
}

// newConvGeom builds the geometry of a kH×kW conv over the NCHW shape
// in; InferShapes has admitted it (pad ≥ 0, window within the padded
// input), so oh and ow are at least 1.
func newConvGeom(in []int, p tensor.ConvParams, kH, kW int) convGeom {
	if p.Stride <= 0 {
		p.Stride = 1
	}
	g := convGeom{c: in[1], h: in[2], w: in[3], kH: kH, kW: kW, stride: p.Stride, pad: p.Padding}
	g.oh, g.ow = p.ConvOutSize(g.h, kH), p.ConvOutSize(g.w, kW)
	g.oyLo, g.oyHi = interiorRange(g.oh, g.h, kH, g.stride, g.pad)
	g.oxLo, g.oxHi = interiorRange(g.ow, g.w, kW, g.stride, g.pad)
	return g
}

// interiorRange returns [lo, hi) over output positions whose taps are
// all in bounds for one spatial axis.
func interiorRange(outN, inN, k, stride, pad int) (int, int) {
	lo := 0
	if pad > 0 {
		lo = (pad + stride - 1) / stride
	}
	hi := (inN - k + pad) / stride
	hi++
	if hi > outN {
		hi = outN
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// taps returns the in-bounds taps [k0, k1) of output position o along
// one axis of input length n; the range is empty when the whole window
// lies in the padding.
func taps(o, n, k, stride, pad int) (k0, k1 int) {
	i0 := o*stride - pad
	k0 = min(max(-i0, 0), k)
	return k0, max(min(k, n-i0), k0)
}

// window is the border rule shared by every conv kernel. For output site
// (oy, ox), kernel row ky is in range iff ky0 ≤ ky < ky1, and an
// in-range tap row is one contiguous kW-long input run clipped to the
// nonempty columns [kx0, kx1); tap (ky, kx) of channel ch sits at
// ch·h·w + base + ky·w + kx. base is tap (0, 0)'s offset, which lies
// outside the plane when the window overhangs the top or left border.
// A window wholly in the padding has no row in range.
func (g *convGeom) window(oy, ox int) (ky0, ky1, kx0, kx1, base int) {
	ky0, ky1 = taps(oy, g.h, g.kH, g.stride, g.pad)
	kx0, kx1 = taps(ox, g.w, g.kW, g.stride, g.pad)
	if kx0 == kx1 {
		ky1 = ky0
	}
	return ky0, ky1, kx0, kx1, (oy*g.stride-g.pad)*g.w + ox*g.stride - g.pad
}

// typedData returns a tensor's concrete storage slice; the caller's
// dispatch guarantees A matches the storage dtype.
func typedData[A tensor.Elem](t *tensor.IntTensor) []A {
	var v any
	switch t.DType {
	case tensor.I8:
		v = t.I8
	case tensor.U8:
		v = t.U8
	case tensor.I16:
		v = t.I16
	case tensor.U16:
		v = t.U16
	case tensor.I32:
		v = t.I32
	default:
		v = t.Data
	}
	return v.([]A)
}

// gemmCore is the MAC array a conv/linear state binds, the one stage of
// its gather → MAC → requantize datapath that varies: int32/int64 panels
// over a C-wide gather panel (densely, over channel CSR lists, or over
// an N:M pack), or the SWAR cores (swar.go) over a biased byte panel.
type gemmCore uint8

const (
	coreI64        gemmCore = iota // int64 panels
	coreI32                        // int32 panels
	coreCSR                        // int32 channel CSR
	coreNM                         // int32 N:M pack
	coreSwar                       // lane-packed, dense
	coreSwarSparse                 // lane-packed, pair-skipping
)

// String is the core's path in the per-instruction record.
func (c gemmCore) String() string {
	return [...]string{"i64-panel", "i32-panel", "i32-sparse", "i32-nm", "swar", "swar-sparse"}[c]
}

// swar reports whether the core is a SWAR core.
func (c gemmCore) swar() bool { return c == coreSwar || c == coreSwarSparse }

// coreFor chooses the core of conv/linear instruction idx under this
// executor's registry and storage plan. The cost-driven sparse pick goes
// first (pair-skipping SWAR includes instructions only the live-K lane
// bound admits); otherwise dense instructions take SWAR where its lane
// bound holds, and the int32 or int64 panels by the storage pass's
// accumulator rule.
func (ex *Executor) coreFor(idx int) gemmCore {
	switch ex.sparsePickFor(idx) {
	case pickCSR:
		return coreCSR
	case pickNM:
		return coreNM
	case pickPairSwar:
		return coreSwarSparse
	}
	switch {
	case ex.swarInstr(idx):
		return coreSwar
	case ex.typedInstr(idx):
		return coreI32
	}
	return coreI64
}

// panelState is the part of a conv/linear state both drivers share: the
// bound core with the weights it reads, the epilogue, and the site/row
// tile per batch size (index n).
type panelState[C accum] struct {
	core  gemmCore
	o, np int
	tm    []int
	ad    tensor.DType
	wp    []C        // packed weight panels (panel cores)
	skip  *panelSkip // live lists (i32-sparse, swar-sparse)
	nm    *nmPack    // N:M pack (i32-nm)
	sw    *swarPack  // lane-packed weights (SWAR cores)
	epi   epi
}

// coreState is what the per-instruction record reads of a conv/linear
// state: its core and its tile per batch size.
type coreState interface {
	boundCore() (gemmCore, []int)
}

func (ps *panelState[C]) boundCore() (gemmCore, []int) { return ps.core, ps.tm }

// bindPanels binds the shared part of a conv/linear state onto core
// over the instruction's [o, k] weights: the shared pack the core reads
// and the sparse form it runs.
func bindPanels[C accum](ex *Executor, idx int, it *Instr, core gemmCore, k int) (panelState[C], error) {
	o := it.W.Shape[0]
	ps := panelState[C]{core: core, o: o, np: (o + panelW - 1) / panelW, ad: ex.plan.DTypes[it.In[0]]}
	var sh *sharedPack
	if core.swar() {
		var err error
		if sh, err = swarShared(ex, idx, it, ps.ad, o, k); err != nil {
			return ps, err
		}
		ps.sw = sh.sw
	} else {
		sh = ex.prog.packs().sharedFor(sharedKey{idx: idx, wide: isWide[C]()}, func() *sharedPack {
			return &sharedPack{
				wp:  packPanels[C](it.W.Data, o, k),
				epi: newEpi(it, o, it.W.Data, it.InZero, accMax[C]()),
			}
		})
		ps.wp = sh.wp.([]C)
	}
	ps.epi = sh.epi
	switch core {
	case coreCSR, coreSwarSparse:
		ps.skip = ex.sparseInstr(idx).skip
	case coreNM:
		ps.nm = ex.sparseInstr(idx).nm
	}
	return ps, nil
}

// convPackT is the bound state of a dense convolution.
type convPackT[C accum] struct {
	convGeom
	panelState[C]
	colW, spatial int
}

// gconvPackT is the bound state of a grouped/depthwise convolution: tap
// offsets within the group slab widened into a zero-padded hp×wp layout,
// and the loop that runs over it — the 3×3 row kernel (dw3) or the
// tap-offset loop.
type gconvPackT[C accum] struct {
	convGeom
	o, og, cg, hp, wp int
	dw3               bool
	ad                tensor.DType
	off               []int32 // cg·kH·kW tap offsets within the padded slab
	wv                []C     // row-major [o][cg·kH·kW]
	epi               epi
}

// newGconvPack lays out a grouped conv of cg channels per group over g:
// the padded slab plane, the tap offsets within it and the loop choice.
func newGconvPack[C accum](g convGeom, cg int) *gconvPackT[C] {
	st := &gconvPackT[C]{convGeom: g, cg: cg, hp: g.h + 2*g.pad, wp: g.w + 2*g.pad,
		dw3: cg*g.kH*g.kW == 9 && g.kW == 3}
	for ch := 0; ch < cg; ch++ {
		for ky := 0; ky < g.kH; ky++ {
			for kx := 0; kx < g.kW; kx++ {
				st.off = append(st.off, int32((ch*st.hp+ky)*st.wp+kx))
			}
		}
	}
	return st
}

// linPackT is the bound state of a linear layer (row-tiled; each job
// owns a slot-local [tm, o] accumulator tile, so the state is a
// gridRunner). The row count comes from the input view, rowsPer rows per
// sample.
type linPackT[C accum] struct {
	panelState[C]
	k, rowsPer int
}

// tileSites picks the GEMM site tile so one gathered panel
// (tile × colW words) stays cache-resident.
func tileSites(colW, spatial int) int {
	tm := 4096 / colW
	if tm < 4 {
		tm = 4
	}
	if tm > 64 {
		tm = 64
	}
	if tm > spatial {
		tm = spatial
	}
	return tm
}

// tileRows picks the linear's row tile: target an 8192-element
// accumulator tile per slot (L1-resident alongside the weight panel at
// int32), clamped to the row count.
func tileRows(o, rows int) int {
	tm := 8192 / o
	if tm < 4 {
		tm = 4
	}
	if tm > 64 {
		tm = 64
	}
	if tm > rows {
		tm = rows
	}
	return tm
}

// tilesByBatch evaluates tile(n) for every batch size n up to the
// executor's bound (index n; index 0 unused) — the tile a bind at batch
// n would choose, so per-n kernel work does not depend on the bound —
// and returns the largest, which sizes the slot scratch.
func (ex *Executor) tilesByBatch(tile func(n int) int) ([]int, int) {
	t := make([]int, ex.bound+1)
	for n := 1; n <= ex.bound; n++ {
		t[n] = tile(n)
	}
	return t, slices.Max(t)
}

// prepConv binds a conv instruction on the core coreFor chooses: the
// SWAR and int32 cores on the int32 driver, the int64 panels on the
// int64 one.
func prepConv(ex *Executor, idx int, it *Instr) (any, error) {
	if in := ex.plan.Shapes[it.In[0]]; len(in) != 4 {
		return nil, fmt.Errorf("engine: conv %s input rank %d", it.Name, len(in))
	}
	if core := ex.coreFor(idx); core != coreI64 {
		return prepConvT[int32](ex, idx, it, core)
	}
	return prepConvT[int64](ex, idx, it, coreI64)
}

// prepConvT binds a conv onto the C-accumulating driver: grouped convs
// get the direct-kernel state, dense convs the packed-GEMM state on
// core.
func prepConvT[C accum](ex *Executor, idx int, it *Instr, core gemmCore) (any, error) {
	in := ex.plan.Shapes[it.In[0]]
	ad := ex.plan.DTypes[it.In[0]]
	o, cg, kH, kW := it.W.Shape[0], it.W.Shape[1], it.W.Shape[2], it.W.Shape[3]
	g := newConvGeom(in, it.P, kH, kW)
	bufs := slotsOf[C](ex)
	if groups := it.P.Groups; groups > 1 {
		key := sharedKey{idx: idx, wide: isWide[C]()}
		sh := ex.prog.packs().sharedFor(key, func() *sharedPack {
			return &sharedPack{
				wp:  packRows[C](it.W.Data),
				epi: newEpi(it, o, it.W.Data, it.InZero, accMax[C]()),
			}
		})
		st := newGconvPack[C](g, cg)
		st.o, st.og, st.ad = o, o/groups, ad
		st.wv, st.epi = sh.wp.([]C), sh.epi
		// Staging: the widened fused branch in the int64 slot, the
		// padded input group slab in the C panel and the raw
		// accumulator plane in the C tile.
		ex.NeedSlotScratch(g.oh * g.ow)
		bufs.reserve(cg*st.hp*st.wp, g.oh*g.ow)
		return st, nil
	}
	colW := g.c * kH * kW
	ps, err := bindPanels[C](ex, idx, it, core, colW)
	if err != nil {
		return nil, err
	}
	st := &convPackT[C]{convGeom: g, panelState: ps, colW: colW, spatial: g.oh * g.ow}
	tile := tileSites
	if core.swar() {
		tile = tileSitesSwar
	}
	tms, tm := ex.tilesByBatch(func(n int) int {
		return splitTileM(tile(colW, st.spatial), st.spatial, n, ex.kernelWorkers())
	})
	st.tm = tms
	if core.swar() {
		// Staging: fused-add chunk in the int64 slot, the byte panel in
		// the u8 slot, the int32 tile.
		ex.NeedSlotScratch(tm)
		ex.needSlotU8(tm * colW)
		ex.w32.reserve(0, tm*o)
		return st, nil
	}
	// Staging: widened fused-branch chunk in the int64 slot; the gather
	// panel widens any input dtype into the C slot, so the GEMM is one
	// loop per accumulator width.
	ex.NeedSlotScratch(tm)
	bufs.reserve(tm*colW, tm*o)
	return st, nil
}

// prepLinear binds a linear instruction like prepConv; rank > 2 inputs
// run as row-major [rows, K] (ViT token tensors through the same panel
// GEMM).
func prepLinear(ex *Executor, idx int, it *Instr) (any, error) {
	if in := ex.plan.Shapes[it.In[0]]; len(in) < 2 {
		return nil, fmt.Errorf("engine: linear %s input rank %d", it.Name, len(in))
	}
	if core := ex.coreFor(idx); core != coreI64 {
		return prepLinearT[int32](ex, idx, it, core)
	}
	return prepLinearT[int64](ex, idx, it, coreI64)
}

// prepLinearT binds a linear layer onto the C-accumulating driver on
// core.
func prepLinearT[C accum](ex *Executor, idx int, it *Instr, core gemmCore) (any, error) {
	in := ex.plan.Shapes[it.In[0]]
	k := in[len(in)-1]
	rows := tensor.Numel(in) / k
	ps, err := bindPanels[C](ex, idx, it, core, k)
	if err != nil {
		return nil, err
	}
	st := &linPackT[C]{panelState: ps, k: k, rowsPer: rows / ex.bound}
	o := st.o
	w, tile := o, tileRows
	if core.swar() {
		w, tile = k, tileSitesSwar
	}
	tms, tm := ex.tilesByBatch(func(n int) int {
		rows := n * st.rowsPer
		return splitTileM(tile(w, rows), rows, 1, ex.kernelWorkers())
	})
	st.tm = tms
	if core.swar() {
		// Staging: the widened fused-add row; the biased byte panel; the
		// row-major int32 accumulator tile.
		ex.NeedSlotScratch(o)
		ex.needSlotU8(tm * k)
		ex.w32.reserve(0, tm*o)
		return st, nil
	}
	// Staging: the widened fused-add row in the slot's scratch; the
	// row-major accumulator tile.
	ex.NeedSlotScratch(o)
	slotsOf[C](ex).reserve(0, tm*o)
	return st, nil
}

// kernelConvPacked runs the state prepConv bound through its job grid,
// falling back to the reference body when a registry that replaced the
// prep hook bound none.
func kernelConvPacked(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	runBound(ex, idx, it, in, out, kernelConvRef)
}

// kernelLinearPacked is kernelConvPacked for linear layers.
func kernelLinearPacked(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	runBound(ex, idx, it, in, out, kernelLinearRef)
}

// gridRunner is implemented by prepacked kernel states that expose
// their instruction as a grid of slot-confined jobs: jobs returns a
// body executing one job on one parallel slot (touching only that
// slot's scratch), the job count, and whether the grid is worth a
// parallel dispatch. Each view caches the grid per instruction, and
// runBound dispatches it. States that stage through the executor's
// shared grow-only scratch (elementwise kernels) must not implement it.
type gridRunner interface {
	jobs(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) (func(job, slot int), int, bool)
}

// runBound executes instruction idx's bound state as one pool pass over
// the job grid the running view cached for it, built over the operands
// the executor passes as in and out — or ref when no state is bound.
func runBound(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor, ref KernelFunc) {
	g := &ex.cur.grids[idx]
	if g.body == nil {
		ref(ex, idx, it, in, out)
		return
	}
	tensor.ParallelForSlotsN(g.n, ex.maxPar, g.parallel, g.body)
}

// kernelWorkers is the parallelism actually available to this
// executor's kernels: the pool's effective width clamped by the
// executor's own WithMaxParallel bound.
func (ex *Executor) kernelWorkers() int {
	w := tensor.Parallelism()
	if ex.maxPar > 0 && ex.maxPar < w {
		w = ex.maxPar
	}
	return w
}

// splitTileM halves a GEMM site tile until the (sample × tile) job grid
// offers at least one job per available worker, so small layers still
// scale instead of leaving workers idle. Tile size never affects
// values — each site's accumulator and epilogue are element-local — so
// this is a pure scheduling choice. The floor keeps the microkernel's
// register blocking worthwhile.
func splitTileM(tm, spatial, n, workers int) int {
	for tm > 8 && n*((spatial+tm-1)/tm) < workers {
		tm >>= 1
	}
	return tm
}

// jobs exposes the conv as its (sample × site-tile) grid (gridRunner)
// at the input view's batch size, dispatching once on the input storage
// dtype.
func (st *convPackT[C]) jobs(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) (func(job, slot int), int, bool) {
	n := in[0].Shape[0]
	tm := st.tm[n]
	var body func(job, slot int)
	switch st.ad {
	case tensor.I8:
		body = convJob[int8](ex, st, it, in, out, tm)
	case tensor.U8:
		body = convJob[uint8](ex, st, it, in, out, tm)
	case tensor.I16:
		body = convJob[int16](ex, st, it, in, out, tm)
	case tensor.U16:
		body = convJob[uint16](ex, st, it, in, out, tm)
	case tensor.I32:
		body = convJob[int32](ex, st, it, in, out, tm)
	default:
		body = convJob[int64](ex, st, it, in, out, tm)
	}
	return body, n * ceilDiv(st.spatial, tm), n*st.spatial*st.colW*st.o >= 1<<16
}

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// convJob builds the per-(sample, site-tile) job body: the bound core
// gathers the tile's panel from the conv geometry and runs its GEMM into
// the slot's channel-major accumulator tile, then every channel finishes
// straight into the NCHW output planes.
func convJob[A tensor.Elem, C accum](ex *Executor, st *convPackT[C], it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor, tm int) func(job, slot int) {
	xs := typedData[A](in[0])
	var add *tensor.IntTensor
	if it.FusedAdd {
		add = in[len(in)-1]
	}
	core := convCore[A](ex, st, tm)
	o := st.o
	tiles := ceilDiv(st.spatial, tm)
	se := st.c * st.h * st.w
	return func(job, slot int) {
		ni, t := job/tiles, job%tiles
		s0 := t * tm
		m := tm
		if s0+m > st.spatial {
			m = st.spatial - s0
		}
		acc := core(slot, xs[ni*se:(ni+1)*se], s0, m)
		// Epilogue: one contiguous output segment per channel, finished
		// straight from the accumulator row into the typed output.
		addw := ex.SlotScratch(slot)[:tm]
		outBase := ni * o * st.spatial
		for oc := 0; oc < o; oc++ {
			off := outBase + oc*st.spatial + s0
			var bv []int64
			if add != nil {
				bv = addw[:m]
				add.ReadInt64(bv, off)
			}
			finishSegOut(out, off, acc[oc*m:(oc+1)*m], bv, &st.epi, oc)
		}
	}
}

// convCore returns the conv's core at site tile tm as one tile step:
// gather sites [s0, s0+m) of one sample's codes xs into the slot's panel
// and return their raw accumulators as a channel-major [o][m] tile. The
// core is picked here, once per job grid, not per site.
func convCore[A tensor.Elem, C accum](ex *Executor, st *convPackT[C], tm int) func(slot int, xs []A, s0, m int) []C {
	g, colW, o, np := &st.convGeom, st.colW, st.o, st.np
	if st.core.swar() {
		sw, skip := st.sw, st.skip
		step := func(slot int, xs []A, s0, m int) []int32 {
			panel := ex.slotU8[slot][:m*colW]
			gatherPanelBytes(panel, xs, g, sw.ba, s0, m)
			acc := ex.w32.acc[slot]
			if skip != nil {
				gemmPanelsSwarSparse(acc, panel, sw.wps, skip, m, colW, o, np, m, 1)
			} else {
				gemmPanelsSwar(acc, panel, sw.wps, m, colW, o, np, m, 1)
			}
			return acc
		}
		return any(step).(func(int, []A, int, int) []C)
	}
	bufs := slotsOf[C](ex)
	return func(slot int, xs []A, s0, m int) []C {
		panel := bufs.panel[slot][:m*colW]
		gatherPanel(panel, xs, g, s0, m)
		// Accumulator tile is channel-major [o][m]: the GEMM scatters four
		// writes per site pair, and the epilogue walks each channel's
		// accumulators contiguously.
		acc := bufs.acc[slot]
		switch {
		case st.nm != nil:
			gemmPanelsNM(acc, panel, st.nm, m, colW, o)
		case st.skip != nil:
			gemmPanelsCSR(acc, panel, st.skip, m, colW, o)
		default:
			gemmPanels(acc, panel, st.wp, m, colW, o, np)
		}
		return acc
	}
}

// gemmPanels is the register-blocked microkernel:
// C[site, oc] = Σ_j panel[site, j] · w[oc, j] over packed panelW-wide
// weight panels, two sites per step, written channel-major into acc.
func gemmPanels[C accum](acc, panel, wpAll []C, m, colW, o, np int) {
	for pb := 0; pb < np; pb++ {
		wp := wpAll[pb*colW*panelW : (pb+1)*colW*panelW]
		oc0 := pb * panelW
		nch := o - oc0
		if nch > panelW {
			nch = panelW
		}
		i := 0
		for ; i+2 <= m; i += 2 {
			a0 := panel[i*colW : (i+1)*colW]
			a1 := panel[(i+1)*colW : (i+2)*colW]
			var c00, c01, c02, c03, c10, c11, c12, c13 C
			for j := 0; j < colW; j++ {
				wj := wp[j*panelW : j*panelW+panelW : j*panelW+panelW]
				av0, av1 := a0[j], a1[j]
				w0, w1, w2, w3 := wj[0], wj[1], wj[2], wj[3]
				c00 += av0 * w0
				c01 += av0 * w1
				c02 += av0 * w2
				c03 += av0 * w3
				c10 += av1 * w0
				c11 += av1 * w1
				c12 += av1 * w2
				c13 += av1 * w3
			}
			storeAccCol(acc, oc0*m+i, m, nch, c00, c01, c02, c03)
			storeAccCol(acc, oc0*m+i+1, m, nch, c10, c11, c12, c13)
		}
		if i < m {
			a0 := panel[i*colW : (i+1)*colW]
			var c0, c1, c2, c3 C
			for j := 0; j < colW; j++ {
				wj := wp[j*panelW : j*panelW+panelW : j*panelW+panelW]
				av := a0[j]
				c0 += av * wj[0]
				c1 += av * wj[1]
				c2 += av * wj[2]
				c3 += av * wj[3]
			}
			storeAccCol(acc, oc0*m+i, m, nch, c0, c1, c2, c3)
		}
	}
}

// storeAccCol writes up to panelW accumulators of one site into the
// channel-major tile (stride = sites in the tile).
func storeAccCol[C accum](acc []C, base, stride, nch int, c0, c1, c2, c3 C) {
	cs := [panelW]C{c0, c1, c2, c3}
	for r := 0; r < nch; r++ {
		acc[base+r*stride] = cs[r]
	}
}

// storeAccRow writes up to panelW accumulators into a row-major tile row
// (the linear kernel's [rows, o] layout).
func storeAccRow[C accum](acc []C, base, nch int, c0, c1, c2, c3 C) {
	cs := [panelW]C{c0, c1, c2, c3}
	for r := 0; r < nch; r++ {
		acc[base+r] = cs[r]
	}
}

// gatherPanel fills a [m, c·kH·kW] im2col panel for sites [s0, s0+m) of
// one sample's typed codes. Each site's tap runs come from the geometry's
// border rule and widen at the gather (raw values); every other tap is
// padding and reads 0 — the zero point is folded into the epilogue's
// bias.
func gatherPanel[A tensor.Elem, C accum](panel []C, xs []A, g *convGeom, s0, m int) {
	colW, hw := g.c*g.kH*g.kW, g.h*g.w
	oy, ox := s0/g.ow, s0%g.ow
	for i := 0; i < m; i++ {
		row := panel[i*colW : (i+1)*colW]
		ky0, ky1, kx0, kx1, base := g.window(oy, ox)
		n := kx1 - kx0
		if (ky1-ky0)*n < g.kH*g.kW {
			clear(row)
		}
		for ch := 0; ch < g.c; ch++ {
			tap := ch*hw + base + ky0*g.w + kx0
			p := (ch*g.kH+ky0)*g.kW + kx0
			for ky := ky0; ky < ky1; ky++ {
				src := xs[tap : tap+n]
				dst := row[p:][:len(src)]
				for t, v := range src {
					dst[t] = C(v)
				}
				tap += g.w
				p += g.kW
			}
		}
		if ox++; ox == g.ow {
			ox, oy = 0, oy+1
		}
	}
}

// jobs exposes the grouped conv as its (sample × channel-plane) grid
// (gridRunner) at the input view's batch size, dispatching once on the
// input storage dtype.
func (st *gconvPackT[C]) jobs(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) (func(job, slot int), int, bool) {
	var body func(job, slot int)
	switch st.ad {
	case tensor.I8:
		body = gconvJob[int8](ex, st, it, in, out)
	case tensor.U8:
		body = gconvJob[uint8](ex, st, it, in, out)
	case tensor.I16:
		body = gconvJob[int16](ex, st, it, in, out)
	case tensor.U16:
		body = gconvJob[uint16](ex, st, it, in, out)
	case tensor.I32:
		body = gconvJob[int32](ex, st, it, in, out)
	default:
		body = gconvJob[int64](ex, st, it, in, out)
	}
	n := in[0].Shape[0]
	return body, n * st.o, n*st.o*st.oh*st.ow*st.cg*st.kH*st.kW >= 1<<15
}

// gconvJob builds the per-(sample, channel-plane) job body. The group's
// input slab is widened once into the slot's C scratch, zero-padded: a
// padded tap is raw 0, as in the reference, and the zero-point term of
// the folded bias covers it like any other tap, so no site needs a
// border path. The
// whole plane is then finished into the output in one pass.
func gconvJob[A tensor.Elem, C accum](ex *Executor, st *gconvPackT[C], it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) func(job, slot int) {
	xs := typedData[A](in[0])
	var add *tensor.IntTensor
	if it.FusedAdd {
		add = in[len(in)-1]
	}
	bufs := slotsOf[C](ex)
	nt := len(st.off)
	ohw := st.oh * st.ow
	hw, slab := st.h*st.w, st.cg*st.hp*st.wp
	return func(job, slot int) {
		ni, oc := job/st.o, job%st.o
		g := oc / st.og
		wv := st.wv[oc*nt : (oc+1)*nt]
		xBase := (ni*st.c + g*st.cg) * hw
		base := (ni*st.o + oc) * ohw
		xw := bufs.panel[slot][:slab]
		padSlab(xw, xs[xBase:xBase+st.cg*hw], st.cg, st.h, st.w, st.pad)
		// Raw accumulators land in a C plane; the epilogue finishes the
		// whole plane into the typed output in one monomorphized pass.
		acc := bufs.acc[slot][:ohw]
		if st.dw3 {
			st.rows3x3(acc, xw, wv)
		} else {
			st.rowsTaps(acc, xw, wv)
		}
		var bv []int64
		if add != nil {
			bv = ex.SlotScratch(slot)[:ohw]
			add.ReadInt64(bv, base)
		}
		finishSegOut(out, base, acc, bv, &st.epi, oc)
	}
}

// padSlab widens cg h×w input planes into the padded slab xw, writing
// each element once: every input row lands at its padded position, and
// the gaps between rows (the borders) are cleared.
func padSlab[A tensor.Elem, C accum](xw []C, xs []A, cg, h, w, p int) {
	end := 0
	for r := 0; r < cg*h; r++ {
		d := (r/h*(h+2*p)+p+r%h)*(w+2*p) + p
		clear(xw[end:d])
		row := xw[d : d+w]
		for x, v := range xs[r*w : (r+1)*w] {
			row[x] = C(v)
		}
		end = d + w
	}
	clear(xw[end:])
}

// rows3x3 is the 3×3 row kernel (cg·kH·kW = 9, kW = 3): the nine
// weights stay in locals, each output row reslices its three input rows
// (kernel rows, or channels when kH = 1) once, and each site is one
// 9-term sum over three stride-s windows.
func (st *gconvPackT[C]) rows3x3(acc, xw, wv []C) {
	wv = wv[:9]
	w0, w1, w2, w3, w4, w5, w6, w7, w8 := wv[0], wv[1], wv[2], wv[3], wv[4], wv[5], wv[6], wv[7], wv[8]
	o0, o1, o2 := int(st.off[0]), int(st.off[3]), int(st.off[6])
	s, n := st.stride, (st.ow-1)*st.stride+3
	for oy := 0; oy < st.oh; oy++ {
		b := oy * s * st.wp
		r0, r1, r2 := xw[b+o0:b+o0+n], xw[b+o1:b+o1+n], xw[b+o2:b+o2+n]
		row := acc[oy*st.ow : (oy+1)*st.ow]
		for ox := range row {
			i := ox * s
			x0, x1, x2 := r0[i:i+3:i+3], r1[i:i+3:i+3], r2[i:i+3:i+3]
			row[ox] = x0[0]*w0 + x0[1]*w1 + x0[2]*w2 + x1[0]*w3 + x1[1]*w4 + x1[2]*w5 + x2[0]*w6 + x2[1]*w7 + x2[2]*w8
		}
	}
}

// rowsTaps is the loop for any other window: each site sums its
// precomputed tap offsets from the site's slab base, two sites per step
// with one remainder site on odd rows.
func (st *gconvPackT[C]) rowsTaps(acc, xw, wv []C) {
	off, s := st.off, st.stride
	wv = wv[:len(off)]
	for oy := 0; oy < st.oh; oy++ {
		row := acc[oy*st.ow : (oy+1)*st.ow]
		b := oy * s * st.wp
		ox := 0
		for ; ox+2 <= len(row); ox += 2 {
			b0 := b + ox*s
			b1 := b0 + s
			var s0, s1 C
			for t, o := range off {
				wt := wv[t]
				s0 += xw[b0+int(o)] * wt
				s1 += xw[b1+int(o)] * wt
			}
			row[ox], row[ox+1] = s0, s1
		}
		if ox < len(row) {
			b0 := b + ox*s
			var s0 C
			for t, o := range off {
				s0 += xw[b0+int(o)] * wv[t]
			}
			row[ox] = s0
		}
	}
}

// jobs exposes the linear as its row-tile grid (gridRunner) at the
// input view's row count, dispatching once on the input storage dtype.
func (st *linPackT[C]) jobs(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) (func(job, slot int), int, bool) {
	rows := in[0].Numel() / st.k
	tm := st.tm[rows/st.rowsPer]
	var body func(job, slot int)
	switch st.ad {
	case tensor.I8:
		body = linJob[int8](ex, st, it, in, out, rows, tm)
	case tensor.U8:
		body = linJob[uint8](ex, st, it, in, out, rows, tm)
	case tensor.I16:
		body = linJob[int16](ex, st, it, in, out, rows, tm)
	case tensor.U16:
		body = linJob[uint16](ex, st, it, in, out, rows, tm)
	case tensor.I32:
		body = linJob[int32](ex, st, it, in, out, rows, tm)
	default:
		body = linJob[int64](ex, st, it, in, out, rows, tm)
	}
	return body, ceilDiv(rows, tm), rows*st.k*st.o >= 1<<16
}

// linJob builds the per-row-tile job body: the bound core runs its GEMM
// over the tile's input rows into a slot-local row-major [m, o] tile,
// then every row finishes straight into the typed output. Each output
// element's accumulation order over k (and its epilogue) is independent
// of the tiling, so tiling never affects values.
func linJob[A tensor.Elem, C accum](ex *Executor, st *linPackT[C], it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor, rows, tm int) func(t, slot int) {
	xs := typedData[A](in[0])
	var add *tensor.IntTensor
	if it.FusedAdd {
		add = in[len(in)-1]
	}
	core := linCore[A](ex, st)
	return func(t, slot int) {
		r0 := t * tm
		m := tm
		if r0+m > rows {
			m = rows - r0
		}
		acc := core(slot, xs, r0, m)
		finishRowsOut(out, r0, acc, add, ex.SlotScratch(slot), &st.epi)
	}
}

// linCore is convCore for the linear: one tile step over input rows
// [r0, r0+m) of xs, returning a row-major [m, o] tile. The panel cores
// read the rows in place (the zero point is folded into the epilogue's
// bias); the SWAR cores gather them as biased bytes.
func linCore[A tensor.Elem, C accum](ex *Executor, st *linPackT[C]) func(slot int, xs []A, r0, m int) []C {
	k, o, np := st.k, st.o, st.np
	if st.core.swar() {
		sw, skip := st.sw, st.skip
		step := func(slot int, xs []A, r0, m int) []int32 {
			panel := ex.slotU8[slot][:m*k]
			gatherRowBytes(panel, xs[r0*k:(r0+m)*k], sw.ba)
			acc := ex.w32.acc[slot][:m*o]
			if skip != nil {
				gemmPanelsSwarSparse(acc, panel, sw.wps, skip, m, k, o, np, 1, o)
			} else {
				gemmPanelsSwar(acc, panel, sw.wps, m, k, o, np, 1, o)
			}
			return acc
		}
		return any(step).(func(int, []A, int, int) []C)
	}
	bufs := slotsOf[C](ex)
	return func(slot int, xs []A, r0, m int) []C {
		acc := bufs.acc[slot][:m*o]
		switch {
		case st.nm != nil:
			linPanelsNM(acc, xs, st.nm, r0, m, k, o)
		case st.skip != nil:
			linPanelsCSR(acc, xs, st.skip, r0, m, k, o)
		default:
			for pb := 0; pb < np; pb++ {
				wp := st.wp[pb*k*panelW : (pb+1)*k*panelW]
				oc0 := pb * panelW
				nch := o - oc0
				if nch > panelW {
					nch = panelW
				}
				for i := 0; i < m; i++ {
					a0 := xs[(r0+i)*k : (r0+i+1)*k]
					var c0, c1, c2, c3 C
					for j := 0; j < k; j++ {
						wj := wp[j*panelW : j*panelW+panelW : j*panelW+panelW]
						av := C(a0[j])
						c0 += av * wj[0]
						c1 += av * wj[1]
						c2 += av * wj[2]
						c3 += av * wj[3]
					}
					storeAccRow(acc, i*o+oc0, nch, c0, c1, c2, c3)
				}
			}
		}
		return acc
	}
}
