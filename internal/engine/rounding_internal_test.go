package engine

// White-box test of the rounding funnels. The interpreter and the engine
// kernels share intmath.Requantize and intmath.RoundDiv, so the parity
// suites cannot catch a mistake in them; their sign-mask bodies are
// checked here against the sign-branching bodies they replaced.

import (
	"math"
	"testing"

	"torch2chip/internal/intmath"
)

func branchyRequantize(v, sfx, bfx, half int64, frac uint, zero, lo, hi int64) int64 {
	t := v*sfx + bfx
	var q int64
	if t >= 0 {
		q = (t + half) >> frac
	} else {
		q = -((-t + half) >> frac)
	}
	q += zero
	if q < lo {
		q = lo
	}
	if q > hi {
		q = hi
	}
	return q
}

func branchyAddShiftClamp(v int64, shift int, half, lo, hi int64) int64 {
	if shift > 0 {
		if v >= 0 {
			v = (v + half) >> uint(shift)
		} else {
			v = -((-v + half) >> uint(shift))
		}
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func branchyRoundDiv(num, den int64) int64 {
	if num >= 0 {
		return (num + den/2) / den
	}
	return -((-num + den/2) / den)
}

// TestRoundingFunnelsMatchBranchy: Requantize, addShiftClamp and
// RoundDiv equal their branchy oracles on random operands at every
// fraction width up to 30, on the rounding edges of every width, and on
// the extremes of int64, where the negations wrap.
func TestRoundingFunnelsMatchBranchy(t *testing.T) {
	requant := func(v, sfx, bfx int64, frac uint, zero, lo, hi int64) {
		half := int64(1) << frac >> 1
		got := intmath.Requantize(v, sfx, bfx, half, frac, zero, lo, hi)
		if want := branchyRequantize(v, sfx, bfx, half, frac, zero, lo, hi); got != want {
			t.Fatalf("Requantize(%d, %d, %d, half %d, frac %d, zero %d, [%d, %d]) = %d, branchy %d",
				v, sfx, bfx, half, frac, zero, lo, hi, got, want)
		}
		got = addShiftClamp(v, int(frac), half, lo, hi)
		if want := branchyAddShiftClamp(v, int(frac), half, lo, hi); got != want {
			t.Fatalf("addShiftClamp(%d, shift %d, half %d, [%d, %d]) = %d, branchy %d",
				v, frac, half, lo, hi, got, want)
		}
	}
	roundDiv := func(num, den int64) {
		if got, want := intmath.RoundDiv(num, den), branchyRoundDiv(num, den); got != want {
			t.Fatalf("RoundDiv(%d, %d) = %d, branchy %d", num, den, got, want)
		}
	}

	const lo64, hi64 = math.MinInt64, math.MaxInt64
	for frac := uint(0); frac < 64; frac++ {
		half := int64(1) << frac >> 1
		for _, x := range []int64{0, 1, half, half - 1, half + 1, lo64, hi64} {
			requant(x, 1, 0, frac, 0, lo64, hi64)
			requant(-x, 1, 0, frac, 0, lo64, hi64)
		}
	}
	dens := []int64{1, 2, 3, 7, 1 << 20, hi64, lo64}
	for _, den := range dens {
		for _, num := range []int64{0, 1, den / 2, den/2 - 1, den/2 + 1, lo64, hi64} {
			for _, sign := range []int64{1, -1} {
				roundDiv(sign*num, den)
				roundDiv(sign*num, -den)
			}
		}
	}

	// A splitmix64 stream keeps ten million draws cheap under the race
	// detector. operand takes 8 to 64 of its bits, so the sums sometimes
	// wrap and mostly stay in the range the kernels see.
	seed := uint64(7)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	operand := func() int64 {
		z := next()
		return int64(z) >> (z >> 58 % 57)
	}
	for range 10_000_000 {
		lo, hi := operand(), operand()
		if lo > hi {
			lo, hi = hi, lo
		}
		requant(operand(), operand(), operand(), uint(next()%31), operand()>>40, lo, hi)
		if den := operand(); den != 0 {
			roundDiv(operand(), den)
		}
	}
}
