package intmath

import "math"

// SWAR (SIMD-within-a-register) lane primitives for the packed int8 GEMM
// path. Two output channels share one 64-bit accumulator word, each
// owning a 32-bit lane. Weights pack signed, W = w₀ + w₁·2³² mod 2⁶⁴, and
// activations multiply in as non-negative bytes. Word arithmetic is exact
// mod 2⁶⁴, so the accumulated word is S₀ + S₁·2³² mod 2⁶⁴ whatever the
// intermediate sums do; LaneLo and LaneHi sign-extend the two lanes back
// out, which is exact whenever each final lane sum fits int32. SwarLegal
// is the per-instruction proof obligation for that bound.

// SwarLanes is the number of output channels packed per 64-bit word.
const SwarLanes = 2

// SwarLaneBits is the width of one packed sub-accumulator.
const SwarLaneBits = 32

// SwarLaneMax is the largest magnitude a packed sub-accumulator's final
// sum may reach and still decode exactly.
const SwarLaneMax = math.MaxInt32

// SwarLegal reports whether a K-long dot product of activation bytes
// (each in [0, aSpan]) against signed weights (each |w| ≤ wAbs) stays
// within one signed 32-bit lane: K·aSpan·wAbs ≤ SwarLaneMax. All
// arguments must be non-negative; the comparison is performed without
// overflow.
func SwarLegal(k, aSpan, wAbs int64) bool {
	if k < 0 || aSpan < 0 || wAbs < 0 {
		return false
	}
	if k == 0 || aSpan == 0 || wAbs == 0 {
		return true
	}
	if aSpan > SwarLaneMax || k > SwarLaneMax/aSpan {
		return false
	}
	return k*aSpan <= SwarLaneMax/wAbs
}

// PackLanes2 packs two signed weights into one accumulator word, lane 0
// (low) holding w0 and lane 1 (high) w1: w0 + w1·2³² mod 2⁶⁴.
func PackLanes2(w0, w1 int32) uint64 {
	return uint64(int64(w0)) + uint64(w1)<<SwarLaneBits
}

// LaneLo extracts the low sub-accumulator, sign-extended.
func LaneLo(acc uint64) int64 { return int64(int32(uint32(acc))) }

// LaneHi extracts the high sub-accumulator: a negative low lane
// borrowed one from the high half, so adding its sign bit back
// (−(lo>>31) = 1) leaves the high lane exactly, mod 2³² — which is the
// lane itself, since it fits int32.
func LaneHi(acc uint64) int64 {
	return int64(int32(acc>>SwarLaneBits) - int32(acc)>>(SwarLaneBits-1))
}
