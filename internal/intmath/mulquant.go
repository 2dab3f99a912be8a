package intmath

import (
	"fmt"
	"math"

	"torch2chip/internal/tensor"
)

// MulQuant is the integer rescale-and-requantize module that replaces the
// floating-point scale multiplication after fusion (Figure 3/4 of the
// paper). The per-channel (or unified) scale and bias are stored as INT16
// fixed-point numbers with a user-defined (integer, fraction) bit split,
// e.g. INT(12,4) = 4 integer bits and 12 fractional bits:
//
//	y_q = round_clip( (acc · scaleFx) >> frac  +  biasFx >> frac )
//
// computed entirely with integer arithmetic (the shift is a fixed-point
// divide). Outputs are clipped to the declared output bit-width.
type MulQuant struct {
	// ScaleFx and BiasFx are the fixed-point INT16 codes (one per channel,
	// or a single entry for unified scaling).
	ScaleFx []int16
	BiasFx  []int32 // bias uses the same fraction but wider storage headroom
	// FracBits / IntBits define the fixed-point split; FracBits+IntBits=16.
	FracBits int
	IntBits  int
	// OutBits / OutSigned define the requantized output range.
	OutBits   int
	OutSigned bool
	// OutZero is the output zero point added after rescale.
	OutZero int64
}

// NewMulQuant converts float per-channel scale and bias into fixed point.
// intBits+fracBits must equal 16 (an INT16 code).
func NewMulQuant(scale, bias []float32, intBits, fracBits, outBits int, outSigned bool, outZero int64) (*MulQuant, error) {
	if intBits+fracBits != 16 {
		return nil, fmt.Errorf("intmath: INT(%d,%d) is not an INT16 split", intBits, fracBits)
	}
	m := &MulQuant{
		ScaleFx: make([]int16, len(scale)), BiasFx: make([]int32, len(bias)),
		FracBits: fracBits, IntBits: intBits,
		OutBits: outBits, OutSigned: outSigned, OutZero: outZero,
	}
	lim := int64(1)<<15 - 1
	for i, s := range scale {
		c := RoundClip(float64(s)*float64(int64(1)<<fracBits), -lim-1, lim)
		m.ScaleFx[i] = int16(c)
	}
	blim := int64(1)<<31 - 1
	for i, b := range bias {
		c := RoundClip(float64(b)*float64(int64(1)<<fracBits), -blim-1, blim)
		m.BiasFx[i] = int32(c)
	}
	return m, nil
}

func (m *MulQuant) qRange() (int64, int64) {
	if m.OutSigned {
		return -(1 << (m.OutBits - 1)), 1<<(m.OutBits-1) - 1
	}
	return 0, 1<<m.OutBits - 1
}

// scaleAt returns the fixed-point codes for channel ch (unified scaling
// collapses to index 0).
func (m *MulQuant) scaleAt(ch int) (int64, int64) {
	if len(m.ScaleFx) == 1 {
		return int64(m.ScaleFx[0]), int64(m.BiasFx[0])
	}
	return int64(m.ScaleFx[ch]), int64(m.BiasFx[ch])
}

// Apply rescales an accumulator tensor [N,C,...] channel-wise. chDim
// selects which dimension indexes channels (1 for NCHW accumulators,
// -1 for unified scaling of matmul outputs).
func (m *MulQuant) Apply(acc *tensor.IntTensor, chDim int) *tensor.IntTensor {
	out := tensor.NewInt(acc.Shape...)
	m.ApplyTo(out, acc, chDim)
	return out
}

// ApplyTo is Apply writing into a caller-owned destination (same element
// count as acc), so planned-arena executors can rescale without
// allocating. out may alias acc.
func (m *MulQuant) ApplyTo(out, acc *tensor.IntTensor, chDim int) {
	if len(out.Data) != len(acc.Data) {
		panic("intmath: ApplyTo size mismatch")
	}
	lo, hi := m.qRange()
	half := int64(1) << (m.FracBits - 1)
	var chSize, nCh int
	if chDim < 0 || len(m.ScaleFx) == 1 {
		nCh = 1
		chSize = len(acc.Data)
	} else {
		nCh = acc.Shape[chDim]
		inner := 1
		for d := chDim + 1; d < len(acc.Shape); d++ {
			inner *= acc.Shape[d]
		}
		chSize = inner
	}
	for i, v := range acc.Data {
		ch := 0
		if nCh > 1 {
			ch = (i / chSize) % nCh
		}
		sfx, bfx := m.scaleAt(ch)
		out.Data[i] = m.requantize(v, sfx, bfx, half, lo, hi)
	}
}

// requantize is the per-element fixed-point multiply-add with
// round-to-nearest on the shift; every Apply variant funnels through it
// so the engine kernels stay bit-identical to the interpreter.
func (m *MulQuant) requantize(v, sfx, bfx, half, lo, hi int64) int64 {
	return Requantize(v, sfx, bfx, half, uint(m.FracBits), m.OutZero, lo, hi)
}

// Requantize is the scalar fixed-point rescale every MulQuant application
// funnels through: q = round_half_away((v·sfx + bfx) >> frac) + zero,
// clamped to [lo, hi]. It is exported so compiled-engine kernels that
// prepack the MulQuant constants produce bit-identical codes.
//
// The rounding takes no branch on the sign of t: with s = t>>63 (0 or
// -1), (t^s)-s is |t| and (r^s)-s gives r back its sign, so q is
// (|t|+half)>>frac carrying t's sign, for every int64 t.
func Requantize(v, sfx, bfx, half int64, frac uint, zero, lo, hi int64) int64 {
	t := v*sfx + bfx
	s := t >> 63
	q := ((((t ^ s) - s + half) >> frac) ^ s) - s
	q += zero
	if q < lo {
		q = lo
	}
	if q > hi {
		q = hi
	}
	return q
}

// FoldedRound is Requantize with its rounding half and output zero point
// folded into one addend, hz = half + zero<<frac, for a product t = v·sfx
// + c that already carries the bias and every per-channel correction:
//
//	q = clamp((t + hz + (t>>63)) >> frac, lo, hi)
//
// The arithmetic shift floors, so for t ≥ 0 this is (t + half) >> frac +
// zero; for t < 0 the sign bit t>>63 = −1 turns the floor of (t + half −
// 1)/2^frac into −((|t| + half) >> frac), the half-away rounding
// Requantize takes with its sign mask — one signed add instead of two
// sign flips and a separate zero-point add. FoldRound builds it with the
// proof that it is exact.
type FoldedRound struct {
	hz     int64
	frac   uint
	lo, hi int64
}

// FoldRound folds a MulQuant's rounding constants (Consts: half =
// 2^(frac−1), frac ≥ 1) for products bounded by |t| ≤ tMax and reports
// whether the fold is exact: Apply(t) equals Requantize for every such t
// when |t| + |hz| < 2⁶², checked here without overflow (so a zero point
// too large to shift fails the proof rather than wrapping).
func FoldRound(half int64, frac uint, zero, lo, hi, tMax int64) (FoldedRound, bool) {
	const lim = 1 << 62
	r := FoldedRound{frac: frac, lo: lo, hi: hi}
	if frac < 1 || frac > 61 || half != 1<<(frac-1) ||
		tMax < 0 || tMax >= lim || zero <= -lim>>frac || zero >= lim>>frac {
		return r, false
	}
	r.hz = half + zero<<frac
	hzAbs := r.hz
	if hzAbs < 0 {
		hzAbs = -hzAbs
	}
	return r, uint64(tMax)+uint64(hzAbs) < lim
}

// Apply requantizes one folded product t = v·sfx + c. FoldRound caps
// frac below 64, so masking the shift count changes nothing but lets the
// compiler drop its oversized-shift guard.
func (r FoldedRound) Apply(t int64) int64 {
	q := (t + r.hz + t>>63) >> (r.frac & 63)
	if q < r.lo {
		q = r.lo
	}
	if q > r.hi {
		q = r.hi
	}
	return q
}

// Consts returns the scalar constants Requantize needs: the rounding
// half, the fraction shift, the output zero point, and the clamp range.
func (m *MulQuant) Consts() (half int64, frac uint, zero, lo, hi int64) {
	lo, hi = m.qRange()
	return int64(1) << (m.FracBits - 1), uint(m.FracBits), m.OutZero, lo, hi
}

// OutRange returns the requantized output code range [lo, hi] implied by
// OutBits/OutSigned — the value range every code this scaler emits lives
// in, and therefore the narrowest legal storage for its output tensor.
func (m *MulQuant) OutRange() (int64, int64) { return m.qRange() }

// OutDType returns the narrowest storage dtype that holds every output
// code, the activation-dtype annotation the typed engine plans with.
func (m *MulQuant) OutDType() tensor.DType {
	lo, hi := m.qRange()
	return tensor.DTypeForRange(lo, hi)
}

// Expand widens the fixed-point codes to n per-channel int64 pairs
// (unified scaling broadcasts entry 0), the layout prepacked kernels
// index without the per-element channel branch.
func (m *MulQuant) Expand(n int) (sfx, bfx []int64) {
	sfx, bfx = make([]int64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		sfx[i], bfx[i] = m.scaleAt(i)
	}
	return sfx, bfx
}

// FloatReference computes the float-precision reference of Apply, used by
// tests to bound the fixed-point error.
func (m *MulQuant) FloatReference(acc *tensor.IntTensor, chDim int, scale, bias []float32) *tensor.IntTensor {
	out := tensor.NewInt(acc.Shape...)
	lo, hi := m.qRange()
	var chSize, nCh int
	if chDim < 0 || len(scale) == 1 {
		nCh = 1
		chSize = len(acc.Data)
	} else {
		nCh = acc.Shape[chDim]
		inner := 1
		for d := chDim + 1; d < len(acc.Shape); d++ {
			inner *= acc.Shape[d]
		}
		chSize = inner
	}
	for i, v := range acc.Data {
		ch := 0
		if nCh > 1 {
			ch = (i / chSize) % nCh
		}
		s, b := scale[0], bias[0]
		if nCh > 1 {
			s, b = scale[ch], bias[ch]
		}
		out.Data[i] = RoundClip(float64(v)*float64(s)+float64(b)+float64(m.OutZero), lo, hi)
	}
	return out
}

// MaxScaleError returns the worst-case representable scale error of the
// fixed-point encoding, 2^-frac/2.
func (m *MulQuant) MaxScaleError() float64 {
	return math.Pow(2, -float64(m.FracBits)) / 2
}
