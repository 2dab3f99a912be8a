package engine

// Transformer kernels: matmul, layernorm, softmax, gelu, head
// split/merge, patch-embed token assembly, and class-token slice. All of
// them stage narrow storage through int64 chunks (ReadInt64/WriteInt64),
// run the exact integer funnels the fuse layers use (Requantize,
// LUT.Lookup, LUTSoftmax.ApplyRow, ISqrt/RoundDiv), and are therefore
// bit-identical across every registry and storage dtype. The batched
// matmul — the only hot loop among them — additionally has a prepacked
// parallel path (per-slot staging, one job per batch-head) bound by
// FastKernels; registries without the prep hook run it serially.

import (
	"fmt"

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

// mmPack is the bound state of a batched matmul. It carries nothing:
// the job grid reads its dimensions from the input view, and prepMatMul
// sized the per-slot staging, which is per batch entry and so the same
// at every batch size.
type mmPack struct{}

// prepMatMul reserves per-slot staging for the parallel batched matmul.
func prepMatMul(ex *Executor, idx int, it *Instr) (any, error) {
	a := ex.plan.Shapes[it.In[0]]
	o := ex.plan.Shapes[it.Out]
	if len(a) != 3 || len(o) != 3 {
		return nil, fmt.Errorf("engine: matmul %s operands rank %d/%d, want 3", it.Name, len(a), len(o))
	}
	m, k, n := a[1], a[2], o[2]
	ex.NeedSlotScratch(m*k + k*n + m*n)
	return &mmPack{}, nil
}

// jobs exposes the matmul as its batch-entry grid (gridRunner) at the
// input view's batch size; each job stages its entry through the slot's
// scratch.
func (st *mmPack) jobs(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) (func(job, slot int), int, bool) {
	a, b := in[0], in[1]
	m, k := a.Shape[1], a.Shape[2]
	n := out.Shape[2]
	batches := a.Shape[0]
	aw, bw, ow := m*k, k*n, m*n
	if it.TransposeB {
		bw = n * k
	}
	return func(bi, slot int) {
		s := ex.SlotScratch(slot)
		av, bv, ov := s[:aw], s[aw:aw+bw], s[aw+bw:aw+bw+ow]
		stageShift(av, a, bi*aw, it.ZA)
		stageShift(bv, b, bi*bw, it.ZB)
		matMulBatch(ov, av, bv, m, k, n, it.TransposeB, it.Scaler)
		out.WriteInt64(ov, bi*ow)
	}, batches, batches*m*k*n >= 1<<14
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
// With bound mmPack state (fast registries) batch entries run in
// parallel on per-slot scratch; otherwise serially on executor scratch.
func kernelMatMul(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
	runBound(ex, idx, it, in, out, kernelMatMulSerial)
}

// kernelMatMulSerial is the unprepacked matmul body.
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
