package engine

// Prepacked kernels: NewExecutor precomputes everything a conv/linear
// instruction needs that does not depend on the input values — weight
// panels blocked for the GEMM microkernel, zero-point row sums, expanded
// requantization constants, fused-epilogue constants, and a cached
// im2col gather-index map per (input shape, ConvParams) — so the steady
// state is a pure indexed gather feeding a register-blocked integer GEMM
// with the whole epilogue applied while the tile is hot. int64 addition
// is exact, so any summation order is bit-identical to the reference
// kernels and the IntModel interpreter.

import (
	"fmt"
	"sync"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

// panelW is the output-channel width of a packed weight panel: the
// microkernel keeps panelW independent accumulator chains per site pair,
// which is what hides the int64 multiply latency.
const panelW = 4

// epi holds an instruction's fully-expanded requantization pipeline:
// own scaler (per channel) plus the shared folded-epilogue constants.
type epi struct {
	sfx, bfx []int64 // own scaler, expanded per output channel
	half     int64
	frac     uint
	zero     int64
	lo, hi   int64
	fc       fusedConsts
}

func newEpi(it *Instr, o int) epi {
	e := epi{fc: fusedConstsOf(it)}
	e.sfx, e.bfx = it.Scaler.Expand(o)
	e.half, e.frac, e.zero, e.lo, e.hi = it.Scaler.Consts()
	return e
}

// store finishes one accumulator (already zero-point corrected) for
// channel oc and writes outD[di]. add (indexed like outD) is read before
// the write, so outD may alias the fused branch.
func (e *epi) store(outD, add []int64, di int, acc int64, oc int) {
	q := intmath.Requantize(acc, e.sfx[oc], e.bfx[oc], e.half, e.frac, e.zero, e.lo, e.hi)
	outD[di] = e.fc.finish(q, add, di)
}

// packPanels blocks a [o, k] row-major weight matrix into panels of
// panelW output channels laid out [panel][k][panelW], so the microkernel
// reads panelW weights contiguously per reduction step. Channels beyond
// o are zero-padded.
func packPanels(w []int64, o, k int) []int64 {
	np := (o + panelW - 1) / panelW
	out := make([]int64, np*k*panelW)
	for pb := 0; pb < np; pb++ {
		for j := 0; j < k; j++ {
			for r := 0; r < panelW; r++ {
				oc := pb*panelW + r
				if oc < o {
					out[(pb*k+j)*panelW+r] = w[oc*k+j]
				}
			}
		}
	}
	return out
}

// rowSumsScaled returns z·Σ_j w[oc,j] per output channel: with the
// gather writing raw codes (0 for padding), acc_true = acc_raw − z·Σw
// exactly, which removes the per-element zero-point subtraction from the
// hot loop.
func rowSumsScaled(w []int64, o, k int, z int64) []int64 {
	sums := make([]int64, o)
	if z == 0 {
		return sums
	}
	for oc := 0; oc < o; oc++ {
		var s int64
		for _, v := range w[oc*k : (oc+1)*k] {
			s += v
		}
		sums[oc] = z * s
	}
	return sums
}

// convKey identifies a cached im2col gather-index map: everything the
// map depends on except the batch size (maps are per-sample).
type convKey struct {
	c, h, w, kH, kW, stride, pad int
}

// sharedPack is the shape-independent part of an instruction's
// prepacked state — weight panels (int64 for the legacy kernels, int8
// for the typed path), zero-point row sums, expanded epilogue constants.
// It is built once per (instruction, variant) and shared (read-only) by
// every executor bound to the program.
type sharedPack struct {
	wp    []int64
	wp32  []int32
	wps   []uint64 // SWAR lane-packed biased weights
	zsum  []int64
	bcorr []int64 // SWAR activation-bias correction ba·Σw per channel
	epi   epi
}

// sharedKey identifies a shared pack: the instruction plus which variant
// — typed (int8-panel), swar (lane-packed), or legacy (int64-panel) —
// one program can serve executors of all kinds concurrently (e.g. the
// zoo-parity tests binding the typed and the forced-I64 registries
// against one program). The key also carries a weight-content
// fingerprint: a program whose weights were swapped in place (e.g. a
// hot reload routed to the same Program value, or a differently-pruned
// checkpoint under one model name) can never be served a stale panel
// plan built from the old content.
type sharedKey struct {
	idx   int
	typed bool
	swar  bool
	fp    uint64
}

// weightFP is an FNV-1a fingerprint of an instruction's weight content,
// mixed into sharedKey. O(numel) per executor bind — the same order as
// the packing it guards.
func weightFP(w *tensor.IntTensor) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range w.Data {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// packCache is the per-Program store of shared prepacked state and
// im2col index maps. A server's workers build executors lazily and
// concurrently, so access is mutex-guarded; everything handed out is
// immutable after construction.
type packCache struct {
	mu     sync.Mutex
	shared map[sharedKey]*sharedPack
	idx    map[convKey][]int32
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

// indexMap returns (building on first use) the gather-index map for a
// conv geometry; identical geometries across instructions and executors
// share one map.
func (pc *packCache) indexMap(key convKey) []int32 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.idx == nil {
		pc.idx = map[convKey][]int32{}
	}
	if m, ok := pc.idx[key]; ok {
		return m
	}
	m := buildIndexMap(key)
	pc.idx[key] = m
	return m
}

// buildIndexMap enumerates, for every output site and every im2col
// column (ch, ky, kx order), the source offset within
// one sample's data, or -1 for a padded tap.
func buildIndexMap(key convKey) []int32 {
	pp := tensor.ConvParams{Stride: key.stride, Padding: key.pad}
	oh, ow := pp.ConvOutSize(key.h, key.kH), pp.ConvOutSize(key.w, key.kW)
	colW := key.c * key.kH * key.kW
	idx := make([]int32, oh*ow*colW)
	pos := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < key.c; ch++ {
				base := ch * key.h * key.w
				for ky := 0; ky < key.kH; ky++ {
					iy := oy*key.stride - key.pad + ky
					for kx := 0; kx < key.kW; kx++ {
						ix := ox*key.stride - key.pad + kx
						if iy >= 0 && iy < key.h && ix >= 0 && ix < key.w {
							idx[pos] = int32(base + iy*key.w + ix)
						} else {
							idx[pos] = -1
						}
						pos++
					}
				}
			}
		}
	}
	return idx
}

// convPack is the bound state of a dense (groups == 1) convolution.
type convPack struct {
	n, c, h, w       int
	o, colW, spatial int
	tm, tiles, np    int
	sampleWords      int
	idx              []int32
	wp               []int64
	zsum             []int64
	epi              epi
	parallel         bool
}

// gconvPack is the bound state of a grouped/depthwise convolution: tap
// offsets for the register-blocked direct loop plus the interior region
// where no bounds checks are needed.
type gconvPack struct {
	n, c, h, w             int
	o, og, cg, kH, kW      int
	oh, ow, stride, pad    int
	oyLo, oyHi, oxLo, oxHi int
	off                    []int32 // cg·kH·kW tap offsets within the group slab
	zsum                   []int64
	epi                    epi
	parallel               bool
}

// linPack is the bound state of a linear layer.
type linPack struct {
	rows, k, o, np int
	wp             []int64
	zsum           []int64
	epi            epi
	parallel       bool
}

// tileSites picks the GEMM row-tile so one gathered panel
// (tile × colW int64 words) stays cache-resident.
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

// prepConv binds a conv instruction: dense convs get the packed-GEMM
// state, grouped convs the direct-kernel state. Instructions the storage
// pass proved narrow-safe bind the typed int8-panel/int32-accumulate
// variant; everything else (including all-I64 registries) keeps the
// legacy int64 state, whose buffers the planner stored as I64.
func prepConv(ex *Executor, idx int, it *Instr) (any, error) {
	in := ex.plan.Shapes[it.In[0]]
	if len(in) != 4 {
		return nil, fmt.Errorf("engine: conv %s input rank %d", it.Name, len(in))
	}
	// Sparse dispatch: the cost-driven plan picks the modeled-fastest
	// legal kernel for the instruction's zero structure (CSR and N:M
	// bind on the typed path, pair-skipping on the SWAR path — the
	// latter including instructions only the live-K lane bound admits).
	// pickDense falls through to the ordinary dense precedence.
	if sp := ex.sparseInstr(idx); sp != nil {
		pick, _, _ := sparsePlan(sp, ex.typedInstr(idx), ex.swarInstr(idx), ex.swarSparseInstr(idx))
		switch pick {
		case pickCSR, pickNM:
			return prepConvTyped(ex, idx, it)
		case pickPairSwar:
			return prepConvSwar(ex, idx, it)
		}
	}
	if ex.swarInstr(idx) {
		return prepConvSwar(ex, idx, it)
	}
	if ex.typedInstr(idx) {
		return prepConvTyped(ex, idx, it)
	}
	pp := it.P
	if pp.Stride <= 0 {
		pp.Stride = 1
	}
	if pp.Groups <= 0 {
		pp.Groups = 1
	}
	n, c, h, w := in[0], in[1], in[2], in[3]
	o, cg, kH, kW := it.W.Shape[0], it.W.Shape[1], it.W.Shape[2], it.W.Shape[3]
	oh, ow := pp.ConvOutSize(h, kH), pp.ConvOutSize(w, kW)
	if pp.Groups > 1 {
		sh := ex.prog.packs().sharedFor(sharedKey{idx: idx, fp: weightFP(it.W)}, func() *sharedPack {
			return &sharedPack{
				zsum: rowSumsScaled(it.W.Data, o, cg*kH*kW, it.InZero),
				epi:  newEpi(it, o),
			}
		})
		st := &gconvPack{
			n: n, c: c, h: h, w: w,
			o: o, og: o / pp.Groups, cg: cg, kH: kH, kW: kW,
			oh: oh, ow: ow, stride: pp.Stride, pad: pp.Padding,
			zsum: sh.zsum,
			epi:  sh.epi,
		}
		// Interior: output sites whose whole receptive field is in bounds.
		st.oyLo, st.oyHi = interiorRange(oh, h, kH, pp.Stride, pp.Padding)
		st.oxLo, st.oxHi = interiorRange(ow, w, kW, pp.Stride, pp.Padding)
		st.off = make([]int32, cg*kH*kW)
		t := 0
		for ch := 0; ch < cg; ch++ {
			for ky := 0; ky < kH; ky++ {
				for kx := 0; kx < kW; kx++ {
					st.off[t] = int32(ch*h*w + ky*w + kx)
					t++
				}
			}
		}
		st.parallel = n*o*oh*ow*cg*kH*kW >= 1<<15
		return st, nil
	}
	colW := c * kH * kW
	sh := ex.prog.packs().sharedFor(sharedKey{idx: idx, fp: weightFP(it.W)}, func() *sharedPack {
		return &sharedPack{
			wp:   packPanels(it.W.Data, o, colW),
			zsum: rowSumsScaled(it.W.Data, o, colW, it.InZero),
			epi:  newEpi(it, o),
		}
	})
	st := &convPack{
		n: n, c: c, h: h, w: w,
		o: o, colW: colW, spatial: oh * ow,
		sampleWords: c * h * w,
		idx:         ex.prog.packs().indexMap(convKey{c: c, h: h, w: w, kH: kH, kW: kW, stride: pp.Stride, pad: pp.Padding}),
		wp:          sh.wp,
		zsum:        sh.zsum,
		epi:         sh.epi,
	}
	st.tm = tileSites(colW, st.spatial)
	st.tiles = (st.spatial + st.tm - 1) / st.tm
	st.np = (o + panelW - 1) / panelW
	st.parallel = n*st.spatial*colW*o >= 1<<16
	ex.NeedSlotScratch(st.tm * colW)
	return st, nil
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

// prepLinear binds a linear instruction; rank > 2 inputs run as
// row-major [rows, K] (ViT token tensors through the same panel GEMM).
func prepLinear(ex *Executor, idx int, it *Instr) (any, error) {
	in := ex.plan.Shapes[it.In[0]]
	if len(in) < 2 {
		return nil, fmt.Errorf("engine: linear %s input rank %d", it.Name, len(in))
	}
	// Cost-driven sparse dispatch, mirroring prepConv.
	if sp := ex.sparseInstr(idx); sp != nil {
		pick, _, _ := sparsePlan(sp, ex.typedInstr(idx), ex.swarInstr(idx), ex.swarSparseInstr(idx))
		switch pick {
		case pickCSR, pickNM:
			return prepLinearTyped(ex, idx, it)
		case pickPairSwar:
			return prepLinearSwar(ex, idx, it)
		}
	}
	if ex.swarInstr(idx) {
		return prepLinearSwar(ex, idx, it)
	}
	if ex.typedInstr(idx) {
		return prepLinearTyped(ex, idx, it)
	}
	k := in[len(in)-1]
	rows := tensor.Numel(in) / k
	o := it.W.Shape[0]
	sh := ex.prog.packs().sharedFor(sharedKey{idx: idx, fp: weightFP(it.W)}, func() *sharedPack {
		return &sharedPack{
			wp:   packPanels(it.W.Data, o, k),
			zsum: rowSumsScaled(it.W.Data, o, k, it.InZero),
			epi:  newEpi(it, o),
		}
	})
	st := &linPack{
		rows: rows, k: k, o: o,
		np:   (o + panelW - 1) / panelW,
		wp:   sh.wp,
		zsum: sh.zsum,
		epi:  sh.epi,
	}
	st.parallel = rows*k*o >= 1<<16
	return st, nil
}

// kernelConvPacked dispatches on the bound state built by prepConv.
func kernelConvPacked(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	switch st := (*ex.KernelState(idx)).(type) {
	case *convPack:
		runConvPacked(ex, st, it, in, out)
	case *gconvPack:
		runConvGroupedPacked(ex, st, it, in, out)
	case *convPackS:
		runConvSwar(ex, st, it, in, out)
	case *convPackT:
		runConvTyped(ex, st, it, in, out)
	case *gconvPackT:
		runConvGroupedTyped(ex, st, it, in, out)
	default:
		// No prepacked state (a registry that replaced the prep hook):
		// fall back to the reference body.
		kernelConvRef(ex, idx, it, in, out)
	}
}

// runConvPacked: per (sample, site-tile) job, gather the tile's im2col
// panel through the cached index map, run the register-blocked GEMM
// against the packed weight panels, and finish each element through the
// fused epilogue straight into NCHW planes.
func runConvPacked(ex *Executor, st *convPack, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	x := in[0]
	add := fusedAddOperand(it, in)
	outD := out.Data
	colW := st.colW
	tensor.ParallelForSlotsN(st.n*st.tiles, ex.maxPar, st.parallel, func(job, slot int) {
		ni, t := job/st.tiles, job%st.tiles
		s0 := t * st.tm
		m := st.tm
		if s0+m > st.spatial {
			m = st.spatial - s0
		}
		panel := ex.SlotScratch(slot)[:m*colW]
		xs := x.Data[ni*st.sampleWords : (ni+1)*st.sampleWords]
		gatherPanel(panel, xs, st.idx[s0*colW:(s0+m)*colW], colW, m)
		outBase := ni * st.o * st.spatial
		for pb := 0; pb < st.np; pb++ {
			wp := st.wp[pb*colW*panelW : (pb+1)*colW*panelW]
			oc0 := pb * panelW
			nch := st.o - oc0
			if nch > panelW {
				nch = panelW
			}
			i := 0
			for ; i+2 <= m; i += 2 {
				a0 := panel[i*colW : (i+1)*colW]
				a1 := panel[(i+1)*colW : (i+2)*colW]
				var c00, c01, c02, c03, c10, c11, c12, c13 int64
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
				st.finishSite(outD, add, outBase, s0+i, oc0, nch, c00, c01, c02, c03)
				st.finishSite(outD, add, outBase, s0+i+1, oc0, nch, c10, c11, c12, c13)
			}
			if i < m {
				a0 := panel[i*colW : (i+1)*colW]
				var c0, c1, c2, c3 int64
				for j := 0; j < colW; j++ {
					wj := wp[j*panelW : j*panelW+panelW : j*panelW+panelW]
					av := a0[j]
					c0 += av * wj[0]
					c1 += av * wj[1]
					c2 += av * wj[2]
					c3 += av * wj[3]
				}
				st.finishSite(outD, add, outBase, s0+i, oc0, nch, c0, c1, c2, c3)
			}
		}
	})
}

// gatherPanel fills a [m, colW] im2col panel from one sample's codes via
// the index map (raw values; padded taps contribute 0 — the zero point
// is folded into the epilogue's row-sum correction).
func gatherPanel(panel, xs []int64, idx []int32, colW, m int) {
	for i := 0; i < m; i++ {
		row := panel[i*colW : (i+1)*colW]
		irow := idx[i*colW : (i+1)*colW]
		for j, id := range irow {
			if id >= 0 {
				row[j] = xs[id]
			} else {
				row[j] = 0
			}
		}
	}
}

// finishSite requantizes one site's panelW accumulators and scatters
// them into the NCHW output planes.
func (st *convPack) finishSite(outD, add []int64, outBase, s, oc0, nch int, c0, c1, c2, c3 int64) {
	accs := [panelW]int64{c0, c1, c2, c3}
	for r := 0; r < nch; r++ {
		oc := oc0 + r
		st.epi.store(outD, add, outBase+oc*st.spatial+s, accs[r]-st.zsum[oc], oc)
	}
}

// runConvGroupedPacked: one job per (sample, output channel) plane. The
// interior runs the precomputed tap-offset loop with two-site register
// blocking and no bounds checks; border sites take the checked loop.
// Both paths gather raw codes and correct with z·Σw, exactly like the
// dense kernel.
func runConvGroupedPacked(ex *Executor, st *gconvPack, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	x := in[0]
	add := fusedAddOperand(it, in)
	outD := out.Data
	wD := it.W.Data
	nt := len(st.off)
	tensor.ParallelForIntN(st.n*st.o, ex.maxPar, st.parallel, func(job int) {
		ni, oc := job/st.o, job%st.o
		g := oc / st.og
		wv := wD[oc*nt : (oc+1)*nt]
		xBase := (ni*st.c + g*st.cg) * st.h * st.w
		xd := x.Data
		base := (ni*st.o + oc) * st.oh * st.ow
		corr := st.zsum[oc]
		for oy := 0; oy < st.oh; oy++ {
			rowOff := base + oy*st.ow
			interiorRow := oy >= st.oyLo && oy < st.oyHi
			// Border columns (and whole border rows) take the checked path.
			oxLo, oxHi := st.oxLo, st.oxHi
			if !interiorRow {
				oxLo, oxHi = 0, 0
			}
			for ox := 0; ox < oxLo; ox++ {
				st.epi.store(outD, add, rowOff+ox, st.borderAcc(xd, wv, xBase, oy, ox)-corr, oc)
			}
			if interiorRow {
				rowBase := xBase + (oy*st.stride-st.pad)*st.w - st.pad
				ox := oxLo
				for ; ox+2 <= oxHi; ox += 2 {
					b0 := rowBase + ox*st.stride
					b1 := b0 + st.stride
					var s0, s1 int64
					for t := 0; t < nt; t++ {
						o := int(st.off[t])
						wt := wv[t]
						s0 += xd[b0+o] * wt
						s1 += xd[b1+o] * wt
					}
					st.epi.store(outD, add, rowOff+ox, s0-corr, oc)
					st.epi.store(outD, add, rowOff+ox+1, s1-corr, oc)
				}
				for ; ox < oxHi; ox++ {
					b0 := rowBase + ox*st.stride
					var s int64
					for t := 0; t < nt; t++ {
						s += xd[b0+int(st.off[t])] * wv[t]
					}
					st.epi.store(outD, add, rowOff+ox, s-corr, oc)
				}
			}
			for ox := oxHi; ox < st.ow; ox++ {
				st.epi.store(outD, add, rowOff+ox, st.borderAcc(xd, wv, xBase, oy, ox)-corr, oc)
			}
		}
	})
}

// borderAcc accumulates one output site with per-tap bounds checks
// (raw codes; out-of-bounds taps contribute 0).
func (st *gconvPack) borderAcc(xd, wv []int64, xBase, oy, ox int) int64 {
	var s int64
	for ch := 0; ch < st.cg; ch++ {
		xb := xBase + ch*st.h*st.w
		for ky := 0; ky < st.kH; ky++ {
			iy := oy*st.stride - st.pad + ky
			if iy < 0 || iy >= st.h {
				continue
			}
			row := xd[xb+iy*st.w : xb+(iy+1)*st.w]
			wRow := wv[(ch*st.kH+ky)*st.kW : (ch*st.kH+ky+1)*st.kW]
			for kx := 0; kx < st.kW; kx++ {
				ix := ox*st.stride - st.pad + kx
				if ix >= 0 && ix < st.w {
					s += row[ix] * wRow[kx]
				}
			}
		}
	}
	return s
}

// kernelLinearPacked runs the packed-panel GEMM over the input rows
// directly (no gather needed) with the zero point folded into the
// row-sum correction, eliminating the shifted input copy entirely.
func kernelLinearPacked(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	if st, ok := (*ex.KernelState(idx)).(*linPackS); ok {
		runLinearSwar(ex, st, it, in, out)
		return
	}
	if st, ok := (*ex.KernelState(idx)).(*linPackT); ok {
		runLinearTyped(ex, st, it, in, out)
		return
	}
	st, ok := (*ex.KernelState(idx)).(*linPack)
	if !ok {
		kernelLinearRef(ex, idx, it, in, out)
		return
	}
	x := in[0]
	add := fusedAddOperand(it, in)
	outD := out.Data
	k := st.k
	tensor.ParallelForIntN(st.np, ex.maxPar, st.parallel, func(pb int) {
		wp := st.wp[pb*k*panelW : (pb+1)*k*panelW]
		oc0 := pb * panelW
		nch := st.o - oc0
		if nch > panelW {
			nch = panelW
		}
		for row := 0; row < st.rows; row++ {
			a0 := x.Data[row*k : (row+1)*k]
			var c0, c1, c2, c3 int64
			for j := 0; j < k; j++ {
				wj := wp[j*panelW : j*panelW+panelW : j*panelW+panelW]
				av := a0[j]
				c0 += av * wj[0]
				c1 += av * wj[1]
				c2 += av * wj[2]
				c3 += av * wj[3]
			}
			accs := [panelW]int64{c0, c1, c2, c3}
			for r := 0; r < nch; r++ {
				oc := oc0 + r
				st.epi.store(outD, add, row*st.o+oc, accs[r]-st.zsum[oc], oc)
			}
		}
	})
}
