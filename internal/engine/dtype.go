package engine

// Narrow-precision storage planning: every buffer's code value range is
// derivable from the instruction that writes it (the producing scaler's
// requantization range, a residual add's clamp range, or propagation for
// range-preserving ops), so the narrowest legal storage dtype per buffer
// is a pure function of the program, derived wherever it is needed
// (bufDTypes) and never stored beside it; the typed executor plans its
// arenas from it. The storage pass additionally decides, per conv/linear
// instruction, the accumulator width its kernel binds (int32 where the
// bound below holds, int64 otherwise) and whether the SWAR lane bound
// holds; both kernel widths load and store any storage dtype, so storage
// is never widened for a kernel.

import (
	"fmt"
	"math"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

// bufRange is a buffer's derived code value range.
type bufRange struct {
	lo, hi int64
	ok     bool
}

// maxDist is the largest |v − z| over the range: a zero-point-shifted
// operand's magnitude bound (z = 0 gives the raw codes').
func (r bufRange) maxDist(z int64) int64 {
	a, b := r.lo-z, r.hi-z
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

// inferRanges derives the value range of every buffer from the program:
// the input buffer carries InQuant's code range, conv/linear/rescale
// outputs the effective epilogue range (folded rescale overrides the own
// scaler, a folded add's clamp overrides both), residual adds their
// clamp range, and avgpool/flatten preserve their input's range (an
// integer mean never exceeds the extremes it averages).
func (p *Program) inferRanges() ([]bufRange, error) {
	rng := make([]bufRange, p.NumBufs)
	rng[p.Input] = bufRange{lo: p.InQuant.QMin(), hi: p.InQuant.QMax(), ok: true}
	for idx := range p.Instrs {
		it := &p.Instrs[idx]
		for _, b := range it.In {
			if !rng[b].ok {
				return nil, fmt.Errorf("engine: instr %d (%s) reads buffer %d with no derived range", idx, it.Kind, b)
			}
		}
		var out bufRange
		switch it.Kind {
		case OpConv, OpLinear, OpRescale:
			lo, hi := it.Scaler.OutRange()
			if it.FusedRescale != nil {
				lo, hi = it.FusedRescale.OutRange()
			}
			out = bufRange{lo: lo, hi: hi, ok: true}
		case OpMatMul, OpLayerNorm:
			lo, hi := it.Scaler.OutRange()
			out = bufRange{lo: lo, hi: hi, ok: true}
		case OpAdd:
			out = bufRange{lo: it.ClampLo, hi: it.ClampHi, ok: true}
		case OpSoftmax, OpGelu, OpEmbed:
			// The declared clamp range (softmax probability range, GELU
			// table output range, embedding clamp).
			out = bufRange{lo: it.ClampLo, hi: it.ClampHi, ok: true}
		case OpAvgPool, OpFlatten, OpSplitHeads, OpMergeHeads, OpSliceCls:
			out = rng[it.In[0]]
		default:
			return nil, fmt.Errorf("engine: unknown op kind %q", it.Kind)
		}
		if it.FusedAdd {
			out = bufRange{lo: it.ClampLo, hi: it.ClampHi, ok: true}
		}
		rng[it.Out] = out
	}
	return rng, nil
}

// bufDTypes derives every buffer's storage dtype, the narrowest that
// holds its inferred code range (a buffer nothing writes, such as one
// fusion eliminated, keeps the zero DType). Storage is a pure function
// of the program: storage(), Spec and FromCheckpoint all derive it here.
func (p *Program) bufDTypes() ([]bufRange, []tensor.DType, error) {
	rng, err := p.inferRanges()
	if err != nil {
		return nil, nil, err
	}
	dts := make([]tensor.DType, len(rng))
	for b, r := range rng {
		if r.ok {
			dts[b] = tensor.DTypeForRange(r.lo, r.hi)
		}
	}
	return rng, dts, nil
}

// storageInfo is the resolved typed-storage decision: the per-buffer
// storage dtype and derived range, per instruction whether conv/linear
// accumulates in int32 (typed), and whether it may additionally take
// the SWAR lane-packed path (a strict subset of typed). A matmul's
// reduction length is a shape, not a weight property, so its int32
// rule (matMulTyped) runs at bind over rng.
type storageInfo struct {
	dts   []tensor.DType
	rng   []bufRange
	typed []bool
	swar  []bool
	// swarSparse marks typed conv/linear instructions whose pruned
	// weights fit the SWAR lane bound over their live K positions even
	// though the dense full-K bound fails (or also holds). Only the
	// pair-skipping SWAR kernel is legal under this flag — the dense
	// kernel's biased sum runs the full K range.
	swarSparse []bool
}

// accBound reports whether a K-long dot product of raw codes (≤ rawMax
// in magnitude) against weights (≤ wAbs) accumulates without int32
// overflow, which is what makes the narrow GEMM bit-identical to the
// int64 reference: every partial sum is bounded by K·rawMax·wAbs.
func accBound(k, rawMax, wAbs int64) bool {
	if rawMax > math.MaxInt32 {
		return false
	}
	if rawMax == 0 || wAbs == 0 || k == 0 {
		return true
	}
	limit := int64(math.MaxInt32)
	if k > limit/rawMax || k*rawMax > limit/wAbs {
		return false
	}
	return true
}

// matMulTyped is the matmul's accumulator rule: every partial sum of a
// K-long Σ (a−za)(b−zb) over codes in the operands' derived ranges is
// bounded by K·max|a−za|·max|b−zb|, so where accBound holds (and the
// shifted B codes fit int32 too) the int32 GEMM is bit-identical to
// the int64 reference.
func matMulTyped(k int64, ra, rb bufRange, za, zb int64) bool {
	bAbs := rb.maxDist(zb)
	return bAbs <= math.MaxInt32 && accBound(k, ra.maxDist(za), bAbs)
}

// storage resolves (and caches) the typed-storage plan: every buffer
// is stored at its derived dtype (bufDTypes), and a conv/linear
// accumulates in int32 when its weights fit int8 and its accumulator
// bound fits int32, and binds the int64 kernels otherwise.
func (p *Program) storage() (*storageInfo, error) {
	packInitMu.Lock()
	st := p.stor
	packInitMu.Unlock()
	if st != nil {
		return st, nil
	}
	rng, dts, err := p.bufDTypes()
	if err != nil {
		return nil, err
	}
	st = &storageInfo{
		dts:        dts,
		rng:        rng,
		typed:      make([]bool, len(p.Instrs)),
		swar:       make([]bool, len(p.Instrs)),
		swarSparse: make([]bool, len(p.Instrs)),
	}

	spar := p.sparsity()
	for i := range p.Instrs {
		it := &p.Instrs[i]
		if it.Kind != OpConv && it.Kind != OpLinear {
			continue
		}
		// The accumulator bound uses the largest per-channel *nonzero*
		// count as the effective K: zero weights contribute nothing to
		// any partial sum (dense or sparse kernel alike), so every
		// partial sum is bounded by maxRowNnz·rawMax·wAbs. Dense weights
		// reduce to the full K exactly as before.
		k := spar[i].maxRowNnz
		wMin, wMax := it.W.MinMax()
		wAbs := max(wMax, -wMin)
		st.typed[i] = wMin >= -128 && wMax <= 127 && accBound(k, rng[it.In[0]].maxDist(0), wAbs)

		// SWAR eligibility: the packed microkernel gathers activations as
		// biased bytes, so the input's storage must be 8-bit, and the
		// full-K dot product must fit one signed 32-bit lane. Grouped
		// convs keep the direct kernel — channel pairing has nothing to
		// pack there.
		ad := st.dts[it.In[0]]
		if !st.typed[i] || (it.Kind == OpConv && it.P.Groups > 1) || (ad != tensor.I8 && ad != tensor.U8) {
			continue
		}
		st.swar[i] = swarEligible(int64(it.W.Numel()/it.W.Shape[0]), ad, wMin, wMax)
		// The pair-skipping kernel only ever sums live positions, so its
		// lane bound is the largest per-(panel, pair) live count.
		if spar[i].skip != nil {
			st.swarSparse[i] = swarEligible(spar[i].maxPairLive, ad, wMin, wMax)
		}
	}
	packInitMu.Lock()
	p.stor = st
	packInitMu.Unlock()
	return st, nil
}

// swarEligible is the lane-overflow legality rule: activations biased to
// bytes over the storage dtype's full span aSpan = hi−lo (so any code the
// executor accepts is safe, not just the derived range) against signed,
// unbiased weights: the K-long dot product must fit one signed 32-bit
// sub-accumulator, K·aSpan·max(|wMin|, |wMax|) ≤ 2³¹−1.
func swarEligible(k int64, ad tensor.DType, wMin, wMax int64) bool {
	lo, hi := ad.Range()
	return intmath.SwarLegal(k, hi-lo, max(wMax, -wMin))
}
