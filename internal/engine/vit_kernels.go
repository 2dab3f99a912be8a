package engine

// Transformer kernels: matmul, layernorm, softmax, gelu, head
// split/merge, patch-embed token assembly, and class-token slice. The
// reference bodies stage narrow storage through int64 chunks
// (ReadInt64/WriteInt64) and run the exact integer funnels the fuse
// layers use (Requantize, LUT.Lookup, LUTSoftmax.ApplyRow,
// ISqrt/RoundDiv), so they are bit-identical across every registry and
// storage dtype. FastKernels binds the two attention hot loops at
// storage width: the batched matmul on the packed-panel GEMM (one job
// per batch·head entry) and the softmax as a typed row kernel whose
// normalization divides by an exact multiply-high reciprocal.

import (
	"fmt"
	"math/bits"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

func registerViTKernels(r *Registry) {
	r.kernels[OpMatMul] = kernelMatMul
	r.kernels[OpLayerNorm] = kernelLayerNorm
	r.kernels[OpSoftmax] = kernelSoftmax
	r.kernels[OpGelu] = kernelGelu
	r.kernels[OpSplitHeads] = kernelSplitHeads
	r.kernels[OpMergeHeads] = kernelMergeHeads
	r.kernels[OpEmbed] = kernelEmbed
	r.kernels[OpSliceCls] = kernelSliceCls
}

// mmPackT is the bound state of a batched matmul on the packed-panel
// GEMM at accumulator width C: per batch·head entry, A [M,K] is staged
// as the GEMM's site panel and B as ⌈N/panelW⌉ weight panels, both with
// their zero points subtracted, and the channel-major accumulator tile
// is requantized straight into the typed output. The int32
// instantiation binds where the operands' derived ranges prove the
// accumulator bound (matMulTyped); every other matmul binds int64.
type mmPackT[C accum] struct {
	m, k, n, np int
	epi         epi // unified scaler (channel 0); matmuls fold no epilogue
}

// prepMatMul binds a matmul onto the packed-panel GEMM and reserves its
// per-slot panels and accumulator tile.
func prepMatMul(ex *Executor, idx int, it *Instr) (any, error) {
	a := ex.plan.Shapes[it.In[0]]
	o := ex.plan.Shapes[it.Out]
	if len(a) != 3 || len(o) != 3 {
		return nil, fmt.Errorf("engine: matmul %s operands rank %d/%d, want 3", it.Name, len(a), len(o))
	}
	m, k, n := a[1], a[2], o[2]
	if ex.stor != nil &&
		matMulTyped(int64(k), ex.stor.rng[it.In[0]], ex.stor.rng[it.In[1]], it.ZA, it.ZB) {
		return prepMatMulT[int32](ex, it, m, k, n), nil
	}
	return prepMatMulT[int64](ex, it, m, k, n), nil
}

func prepMatMulT[C accum](ex *Executor, it *Instr, m, k, n int) *mmPackT[C] {
	st := &mmPackT[C]{m: m, k: k, n: n, np: ceilDiv(n, panelW), epi: newEpi(it, 1, nil, 0, accMax[C]())}
	slotsOf[C](ex).reserve(m*k+st.np*k*panelW, n*m)
	return st
}

// jobs exposes the matmul as its batch·head entry grid (gridRunner) at
// the input view's batch size; each job stages its entry into the
// slot's C panels.
func (st *mmPackT[C]) jobs(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) (func(job, slot int), int, bool) {
	a, b := in[0], in[1]
	bufs := slotsOf[C](ex)
	aw, bw := st.m*st.k, st.np*st.k*panelW
	batches := a.Shape[0]
	return func(bi, slot int) {
		p := bufs.panel[slot]
		st.entry(p[:aw], p[aw:aw+bw], bufs.acc[slot][:st.n*st.m], a, b, out, bi, it)
	}, batches, batches*st.m*st.k*st.n >= 1<<14
}

// entry computes batch·head entry bi: out[M,N] = requant(Σ (a−ZA)(b−ZB))
// with a [M,K] and b either [N,K] (TransposeB) or [K,N], through the
// panel GEMM into the channel-major accumulator tile acc [N][M].
func (st *mmPackT[C]) entry(pa, pb, acc []C, a, b, out *tensor.IntTensor, bi int, it *Instr) {
	m, k, n := st.m, st.k, st.n
	switch a.DType {
	case tensor.I8:
		stageSub(pa, a.I8[bi*m*k:], it.ZA)
	case tensor.U8:
		stageSub(pa, a.U8[bi*m*k:], it.ZA)
	case tensor.I16:
		stageSub(pa, a.I16[bi*m*k:], it.ZA)
	case tensor.U16:
		stageSub(pa, a.U16[bi*m*k:], it.ZA)
	case tensor.I32:
		stageSub(pa, a.I32[bi*m*k:], it.ZA)
	default:
		stageSub(pa, a.Data[bi*m*k:], it.ZA)
	}
	switch b.DType {
	case tensor.I8:
		packB(pb, b.I8[bi*k*n:], k, n, it.TransposeB, it.ZB)
	case tensor.U8:
		packB(pb, b.U8[bi*k*n:], k, n, it.TransposeB, it.ZB)
	case tensor.I16:
		packB(pb, b.I16[bi*k*n:], k, n, it.TransposeB, it.ZB)
	case tensor.U16:
		packB(pb, b.U16[bi*k*n:], k, n, it.TransposeB, it.ZB)
	case tensor.I32:
		packB(pb, b.I32[bi*k*n:], k, n, it.TransposeB, it.ZB)
	default:
		packB(pb, b.Data[bi*k*n:], k, n, it.TransposeB, it.ZB)
	}
	gemmPanels(acc, pa, pb, m, k, n, st.np)
	off := bi * m * n
	switch out.DType {
	case tensor.I8:
		finishMatMul(out.I8[off:off+m*n], acc, m, n, &st.epi)
	case tensor.U8:
		finishMatMul(out.U8[off:off+m*n], acc, m, n, &st.epi)
	case tensor.I16:
		finishMatMul(out.I16[off:off+m*n], acc, m, n, &st.epi)
	case tensor.U16:
		finishMatMul(out.U16[off:off+m*n], acc, m, n, &st.epi)
	case tensor.I32:
		finishMatMul(out.I32[off:off+m*n], acc, m, n, &st.epi)
	default:
		finishMatMul(out.Data[off:off+m*n], acc, m, n, &st.epi)
	}
}

// stageSub widens len(dst) codes of src into the C panel, subtracting z.
func stageSub[A tensor.Elem, C accum](dst []C, src []A, z int64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = C(int64(v) - z)
	}
}

// packB blocks one entry's B operand into [⌈N/panelW⌉][K][panelW]
// panels (the layout packPanels gives weights), subtracting z: output
// column oc reads row oc of an [N,K] B (transB) or column oc of a
// [K,N] B. Lanes past N are zeroed.
func packB[A tensor.Elem, C accum](dst []C, src []A, k, n int, transB bool, z int64) {
	if transB {
		for oc := 0; oc < n; oc++ {
			base := (oc/panelW)*k*panelW + oc%panelW
			for j, v := range src[oc*k : (oc+1)*k] {
				dst[base+j*panelW] = C(int64(v) - z)
			}
		}
	} else {
		for j := 0; j < k; j++ {
			for oc, v := range src[j*n : (j+1)*n] {
				dst[((oc/panelW)*k+j)*panelW+oc%panelW] = C(int64(v) - z)
			}
		}
	}
	for oc := n; oc%panelW != 0; oc++ {
		base := (oc/panelW)*k*panelW + oc%panelW
		for j := 0; j < k; j++ {
			dst[base+j*panelW] = 0
		}
	}
}

// finishMatMul requantizes the channel-major tile acc [N][M] with the
// unified scaler into the row-major typed output [M,N], with the folded
// rounding where the bind proved it.
func finishMatMul[O tensor.Elem, C accum](dst []O, acc []C, m, n int, e *epi) {
	sfx, c, rq := e.sfx[0], e.c[0], e.rq
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		if !e.folded {
			for oc := range row {
				row[oc] = O(e.requant(int64(acc[oc*m+i]), sfx, c))
			}
			continue
		}
		for oc := range row {
			row[oc] = O(rq.Apply(int64(acc[oc*m+i])*sfx + c))
		}
	}
}

// matMulBatch computes one batch entry: ov[M,N] = requant(Σ (av−za)(bv−zb))
// with av [M,K] and bv either [N,K] (transB) or [K,N]. The zero points
// were already subtracted while staging.
func matMulBatch(ov, av, bv []int64, m, k, n int, transB bool, sc *intmath.MulQuant) {
	half, frac, zero, lo, hi := sc.Consts()
	sfx, bfx := int64(sc.ScaleFx[0]), int64(sc.BiasFx[0])
	if transB {
		for i := 0; i < m; i++ {
			ai := av[i*k : (i+1)*k]
			oi := ov[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := bv[j*k : (j+1)*k]
				var s int64
				for p := range ai {
					s += ai[p] * bj[p]
				}
				oi[j] = intmath.Requantize(s, sfx, bfx, half, frac, zero, lo, hi)
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		ai := av[i*k : (i+1)*k]
		oi := ov[i*n : (i+1)*n]
		for j := range oi {
			oi[j] = 0
		}
		for p := 0; p < k; p++ {
			a := ai[p]
			if a == 0 {
				continue
			}
			bp := bv[p*n : (p+1)*n]
			for j := range oi {
				oi[j] += a * bp[j]
			}
		}
		for j, s := range oi {
			oi[j] = intmath.Requantize(s, sfx, bfx, half, frac, zero, lo, hi)
		}
	}
}

// stageShift reads count elements at off into dst, subtracting z.
func stageShift(dst []int64, t *tensor.IntTensor, off int, z int64) {
	t.ReadInt64(dst, off)
	if z != 0 {
		for i := range dst {
			dst[i] -= z
		}
	}
}

// kernelMatMul executes the batched zero-corrected matmul + requantize.
// With bound mmPackT state (fast registries) batch entries run in
// parallel on the packed-panel GEMM; otherwise serially on executor
// scratch.
func kernelMatMul(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	runBound(ex, idx, it, in, out, kernelMatMulSerial)
}

// kernelMatMulSerial is the unprepacked matmul body: the reference
// registry's kernel and the packed GEMM's test oracle.
func kernelMatMulSerial(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	a, b := in[0], in[1]
	m, k := a.Shape[1], a.Shape[2]
	n := out.Shape[2]
	batches := a.Shape[0]
	aw, bw, ow := m*k, k*n, m*n
	if it.TransposeB {
		bw = n * k
	}
	av := ex.scratch(0, aw)
	bv := ex.scratch(1, bw)
	ov := ex.scratch(2, ow)
	for bi := 0; bi < batches; bi++ {
		stageShift(av, a, bi*aw, it.ZA)
		stageShift(bv, b, bi*bw, it.ZB)
		matMulBatch(ov, av, bv, m, k, n, it.TransposeB, it.Scaler)
		out.WriteInt64(ov, bi*ow)
	}
}

// scalerConsts mirrors MulQuant.scaleAt using the exported fields
// (unified scaling collapses to entry 0).
func scalerConsts(m *intmath.MulQuant, ch int) (int64, int64) {
	if len(m.ScaleFx) == 1 {
		return int64(m.ScaleFx[0]), int64(m.BiasFx[0])
	}
	return int64(m.ScaleFx[ch]), int64(m.BiasFx[ch])
}

// kernelLayerNorm mirrors fuse.IntLayerNorm.Forward row by row: exact
// integer row statistics, Newton square root with the code-domain
// epsilon, fixed-point x̂, per-channel γ/β requantize.
func kernelLayerNorm(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	d := it.LNDim
	rows := in[0].Numel() / d
	row := ex.scratch(0, d)
	half, frac, zero, lo, hi := it.Scaler.Consts()
	for r := 0; r < rows; r++ {
		in[0].ReadInt64(row, r*d)
		var sum int64
		for _, q := range row {
			sum += q
		}
		s2 := it.LNEps + 1
		for i, q := range row {
			di := int64(d)*q - sum
			row[i] = di
			s2 += di * di
		}
		root := intmath.ISqrt(s2)
		for i, di := range row {
			sfx, bfx := scalerConsts(it.Scaler, i)
			row[i] = intmath.Requantize(intmath.RoundDiv(di*it.LNK, root), sfx, bfx, half, frac, zero, lo, hi)
		}
		out.WriteInt64(row, r*d)
	}
}

// kernelSoftmax runs the integer softmax row-wise through the shared
// LUTSoftmax.ApplyRow funnel.
func kernelSoftmax(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	sh := in[0].Shape
	d := sh[len(sh)-1]
	rows := in[0].Numel() / d
	row := ex.scratch(0, d)
	es := ex.scratch(1, d)
	for r := 0; r < rows; r++ {
		in[0].ReadInt64(row, r*d)
		it.SM.ApplyRow(row, row, es)
		out.WriteInt64(row, r*d)
	}
}

// smPack is the bound state of the typed softmax: tmaxS is the exp
// table's largest entry times the probability scale 2^OutBits−1, the
// bound on every row's e·S; recip is false when the table has a
// negative entry or tmaxS reaches 2³², and every row then divides.
type smPack struct {
	tmaxS int64
	recip bool
}

// prepSoftmax scans the exp table once for the reciprocal path's bound.
func prepSoftmax(ex *Executor, idx int, it *Instr) (any, error) {
	lo, hi := it.SM.Exp.Range()
	st := &smPack{}
	if s := int64(1)<<it.SM.OutBits - 1; lo >= 0 && it.SM.OutBits <= 32 && (s == 0 || hi <= (1<<32-1)/s) {
		st.tmaxS, st.recip = hi*s, true
	}
	return st, nil
}

// kernelSoftmaxTyped runs the integer softmax row by row from the typed
// logit codes into the typed probability codes. It computes the same
// (e·S + Σ/2)/Σ as LUTSoftmax.ApplyRow; rows whose numerators and sum
// stay below 2³² divide by multiplying with an exact reciprocal.
func kernelSoftmaxTyped(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	st, ok := ex.states[idx].(*smPack)
	if !ok {
		kernelSoftmax(ex, idx, it, in, out)
		return
	}
	sh := in[0].Shape
	d := sh[len(sh)-1]
	es := ex.scratch(0, d)
	switch x := in[0]; x.DType {
	case tensor.I8:
		softmaxOut(st, it.SM, x.I8, out, d, es)
	case tensor.U8:
		softmaxOut(st, it.SM, x.U8, out, d, es)
	case tensor.I16:
		softmaxOut(st, it.SM, x.I16, out, d, es)
	case tensor.U16:
		softmaxOut(st, it.SM, x.U16, out, d, es)
	case tensor.I32:
		softmaxOut(st, it.SM, x.I32, out, d, es)
	default:
		softmaxOut(st, it.SM, x.Data, out, d, es)
	}
}

// softmaxOut dispatches softmaxRows on the output storage dtype.
func softmaxOut[I tensor.Elem](st *smPack, sm *intmath.LUTSoftmax, src []I, out *tensor.IntTensor, d int, es []int64) {
	switch out.DType {
	case tensor.I8:
		softmaxRows(st, sm, src, out.I8, d, es)
	case tensor.U8:
		softmaxRows(st, sm, src, out.U8, d, es)
	case tensor.I16:
		softmaxRows(st, sm, src, out.I16, d, es)
	case tensor.U16:
		softmaxRows(st, sm, src, out.U16, d, es)
	case tensor.I32:
		softmaxRows(st, sm, src, out.I32, d, es)
	default:
		softmaxRows(st, sm, src, out.Data, d, es)
	}
}

// softmaxRows is LUTSoftmax.ApplyRow over every d-long row of src,
// storing into dst. The reciprocal path needs every numerator
// n = e·S + Σ/2 and Σ below 2³²: tmaxS + Σ/2 bounds the former.
func softmaxRows[I, O tensor.Elem](st *smPack, sm *intmath.LUTSoftmax, src []I, dst []O, d int, es []int64) {
	exp, scaleMax := sm.Exp, int64(1)<<sm.OutBits-1
	es = es[:d]
	for r0 := 0; r0 < len(src); r0 += d {
		row, o := src[r0:r0+d], dst[r0:r0+d]
		mx := row[0]
		for _, c := range row {
			if c > mx {
				mx = c
			}
		}
		var sum int64
		for j, c := range row {
			e := exp.Lookup(int64(c) - int64(mx))
			es[j] = e
			sum += e
		}
		if sum == 0 {
			sum = 1
		}
		half := sum / 2
		switch {
		case !st.recip || sum >= 1<<32 || st.tmaxS+half >= 1<<32:
			for j, e := range es {
				o[j] = O((e*scaleMax + half) / sum)
			}
		case sum == 1:
			for j, e := range es {
				o[j] = O(e * scaleMax)
			}
		default:
			c := recipOf(uint64(sum))
			for j, e := range es {
				o[j] = O(divRecip(uint64(e*scaleMax+half), c))
			}
		}
	}
}

// recipOf returns c = ⌈2⁶⁴/d⌉ for 2 ≤ d < 2³² (⌊(2⁶⁴−1)/d⌋ + 1 equals
// it for every such d, powers of two included).
func recipOf(d uint64) uint64 { return ^uint64(0)/d + 1 }

// divRecip returns ⌊n/d⌋ for c = recipOf(d) as the high word of c·n,
// exact for every n, d < 2³² (Lemire, Kaser & Kurz 2019, "Faster
// Remainder by Direct Computation", Theorem 1 with F = 64, N = 32).
func divRecip(n, c uint64) uint64 {
	hi, _ := bits.Mul64(c, n)
	return hi
}

// kernelGelu maps codes through the GELU table in cache-sized chunks.
func kernelGelu(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	n := in[0].Numel()
	buf := ex.scratch(0, elemChunk)
	for c0 := 0; c0 < n; c0 += elemChunk {
		m := n - c0
		if m > elemChunk {
			m = elemChunk
		}
		chunk := buf[:m]
		in[0].ReadInt64(chunk, c0)
		for i, v := range chunk {
			chunk[i] = it.Gelu.Lookup(v)
		}
		out.WriteInt64(chunk, c0)
	}
}

// kernelSplitHeads copies [N,T,D] token rows into [N·H,T,D/H] head rows.
func kernelSplitHeads(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	n, t, d := in[0].Shape[0], in[0].Shape[1], in[0].Shape[2]
	h := it.Heads
	dh := d / h
	row := ex.scratch(0, d)
	for ni := 0; ni < n; ni++ {
		for ti := 0; ti < t; ti++ {
			in[0].ReadInt64(row, (ni*t+ti)*d)
			for hi := 0; hi < h; hi++ {
				out.WriteInt64(row[hi*dh:(hi+1)*dh], ((ni*h+hi)*t+ti)*dh)
			}
		}
	}
}

// kernelMergeHeads is the inverse copy: [N·H,T,dh] → [N,T,dh·H].
func kernelMergeHeads(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	b, t, dh := in[0].Shape[0], in[0].Shape[1], in[0].Shape[2]
	h := it.Heads
	n, d := b/h, dh*h
	row := ex.scratch(0, dh)
	for ni := 0; ni < n; ni++ {
		for hi := 0; hi < h; hi++ {
			for ti := 0; ti < t; ti++ {
				in[0].ReadInt64(row, ((ni*h+hi)*t+ti)*dh)
				out.WriteInt64(row, (ni*t+ti)*d+hi*dh)
			}
		}
	}
}

// kernelEmbed transposes the conv feature map into token rows and adds
// the positional/class codes with the declared clamp, mirroring
// fuse.IntPatchEmbed.Forward.
func kernelEmbed(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	n, d := in[0].Shape[0], in[0].Shape[1]
	sp := in[0].Shape[2] * in[0].Shape[3]
	tTok := sp + 1
	sample := ex.scratch(0, d*sp)
	row := ex.scratch(1, d)
	pos := it.Pos.Data
	clamp := func(v int64) int64 {
		if v < it.ClampLo {
			return it.ClampLo
		}
		if v > it.ClampHi {
			return it.ClampHi
		}
		return v
	}
	for ni := 0; ni < n; ni++ {
		in[0].ReadInt64(sample, ni*d*sp)
		for j := 0; j < d; j++ {
			row[j] = clamp(pos[j])
		}
		out.WriteInt64(row, ni*tTok*d)
		for t := 0; t < sp; t++ {
			pr := pos[(1+t)*d : (2+t)*d]
			for j := 0; j < d; j++ {
				row[j] = clamp(sample[j*sp+t] + pr[j])
			}
			out.WriteInt64(row, (ni*tTok+1+t)*d)
		}
	}
}

// kernelSliceCls copies token 0 of every sample.
func kernelSliceCls(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	n, t, d := in[0].Shape[0], in[0].Shape[1], in[0].Shape[2]
	row := ex.scratch(0, d)
	for ni := 0; ni < n; ni++ {
		in[0].ReadInt64(row, ni*t*d)
		out.WriteInt64(row, ni*d)
	}
}
