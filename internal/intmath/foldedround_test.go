package intmath

import (
	"math/rand/v2"
	"testing"
)

// outRanges are the clamp ranges of MulQuant outputs: signed and
// unsigned, 1 to 32 bits.
func outRanges() [][2]int64 {
	var rs [][2]int64
	for _, bits := range []uint{1, 2, 4, 7, 8, 12, 16, 24, 31, 32} {
		rs = append(rs, [2]int64{-(1 << (bits - 1)), 1<<(bits-1) - 1}, [2]int64{0, 1<<bits - 1})
	}
	return rs
}

// checkFolded compares the folded rounding of t with Requantize.
func checkFolded(t *testing.T, r FoldedRound, tv, half int64, frac uint, zero, lo, hi int64) {
	t.Helper()
	want := Requantize(tv, 1, 0, half, frac, zero, lo, hi)
	if got := r.Apply(tv); got != want {
		t.Fatalf("frac %d zero %d [%d, %d]: Apply(%d) = %d, Requantize %d", frac, zero, lo, hi, tv, got, want)
	}
}

// TestFoldedRoundMatchesRequantize: wherever FoldRound proves the fold,
// Apply(t) is Requantize's code — for every frac in 1..15, at every
// rounding tie t = k·2^frac ± half and one off each side, at t ∈ {0, −1,
// 1}, with the zero point across each output range and the clamps at lo
// and hi, at both edges of the proven domain |t| + |hz| < 2⁶², and over a
// million random products a·sfx + c of int32 accumulators, int16 scales
// and int32 biases. The proof itself must hold exactly at that edge: it
// accepts |t| + |hz| = 2⁶² − 1 and refuses 2⁶².
func TestFoldedRoundMatchesRequantize(t *testing.T) {
	for frac := uint(1); frac <= 15; frac++ {
		half := int64(1) << (frac - 1)
		d := int64(1) << frac
		for _, rg := range outRanges() {
			lo, hi := rg[0], rg[1]
			zeros := []int64{lo, hi, 0, 1, -1, (lo + hi) / 2, lo + (hi-lo)/3, lo - 1, hi + 1}
			for _, zero := range zeros {
				const tMax = 1 << 40
				r, ok := FoldRound(half, frac, zero, lo, hi, tMax)
				if !ok {
					t.Fatalf("frac %d zero %d: |t| ≤ 2⁴⁰ not proven", frac, zero)
				}
				if r.hz != half+zero<<frac {
					t.Fatalf("frac %d zero %d: hz %d, want half + zero<<frac = %d", frac, zero, r.hz, half+zero<<frac)
				}
				for _, tv := range []int64{0, -1, 1, tMax, -tMax} {
					checkFolded(t, r, tv, half, frac, zero, lo, hi)
				}
				// Ties and their neighbours, over codes that land inside
				// the range and past both clamps.
				for _, k := range []int64{0, 1, -1, 2, -2, 3, -3, lo - zero, hi - zero, lo - zero - 1, hi - zero + 1, 1 << 20, -(1 << 20)} {
					for _, tie := range []int64{k*d + half, k*d - half} {
						for _, off := range []int64{-1, 0, 1} {
							checkFolded(t, r, tie+off, half, frac, zero, lo, hi)
						}
					}
				}
			}
		}

		// Both edges of the proven domain, for a zero point of each sign
		// and one as large as the shift allows.
		for _, zero := range []int64{0, 5, -7, 1<<(62-frac) - 1 - 1<<20, -(1<<(62-frac) - 1 - 1<<20)} {
			lo, hi := int64(-1<<62), int64(1<<62)
			hz := half + zero<<frac
			hzAbs := max(hz, -hz)
			edge := int64(1)<<62 - 1 - hzAbs
			r, ok := FoldRound(half, frac, zero, lo, hi, edge)
			if !ok {
				t.Fatalf("frac %d zero %d: |t| + |hz| = 2⁶² − 1 refused", frac, zero)
			}
			for _, tv := range []int64{edge, -edge, edge - half, -edge + half, 0, -1} {
				checkFolded(t, r, tv, half, frac, zero, lo, hi)
			}
			if _, ok := FoldRound(half, frac, zero, lo, hi, edge+1); ok {
				t.Fatalf("frac %d zero %d: |t| + |hz| = 2⁶² accepted", frac, zero)
			}
		}
		// A zero point whose shift leaves the domain fails the proof
		// whatever t is.
		for _, zero := range []int64{1 << (62 - frac), -(1 << (62 - frac)), 1<<63 - 1, -1 << 63} {
			if _, ok := FoldRound(half, frac, zero, 0, 255, 0); ok {
				t.Fatalf("frac %d: zero point %d accepted", frac, zero)
			}
		}
	}
	// The fold needs half = 2^(frac−1) with frac ≥ 1, and |t| bounded.
	for _, c := range []struct {
		half int64
		frac uint
		tMax int64
	}{{0, 0, 0}, {1, 0, 0}, {2, 1, 0}, {1 << 14, 16, 0}, {1, 1, -1}, {1, 1, 1 << 62}} {
		if _, ok := FoldRound(c.half, c.frac, 0, 0, 255, c.tMax); ok {
			t.Fatalf("FoldRound(half %d, frac %d, tMax %d) accepted", c.half, c.frac, c.tMax)
		}
	}

	// Random products of int32 accumulators, int16 scales and int32
	// biases, the operands the engine's int32 instantiations requantize.
	rnd := rand.New(rand.NewPCG(55, 1))
	ranges := outRanges()
	for n := 0; n < 1_000_000; n++ {
		frac := uint(1 + rnd.IntN(15))
		half := int64(1) << (frac - 1)
		rg := ranges[rnd.IntN(len(ranges))]
		lo, hi := rg[0], rg[1]
		zero := lo + rnd.Int64N(hi-lo+1)
		if n%8 == 0 {
			zero = rnd.Int64N(1<<40) - 1<<39
		}
		a := int64(int32(rnd.Uint32()))
		if n%4 == 0 {
			a = rnd.Int64N(1<<12) - 1<<11
		}
		sfx := int64(int16(rnd.Uint32()))
		c := int64(int32(rnd.Uint32()))
		r, ok := FoldRound(half, frac, zero, lo, hi, int64(1)<<46+1<<31)
		if !ok {
			t.Fatalf("frac %d zero %d: the int32 product domain not proven", frac, zero)
		}
		want := Requantize(a, sfx, c, half, frac, zero, lo, hi)
		if got := r.Apply(a*sfx + c); got != want {
			t.Fatalf("frac %d zero %d [%d, %d]: Apply(%d·%d + %d) = %d, Requantize %d", frac, zero, lo, hi, a, sfx, c, got, want)
		}
	}
}
