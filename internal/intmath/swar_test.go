package intmath

import (
	"math/rand/v2"
	"testing"
)

// TestSwarLegalBoundary pins the signed-lane legality rule at its exact
// edge on both sides. Full 8-bit activation bytes (aSpan 255) against
// weights in [−128, 127] (wAbs 128): one signed 32-bit lane holds
// K·255·128 ⇔ K ≤ 65793. Weights in [0, 1] (wAbs 1): K ≤ 8421504.
func TestSwarLegalBoundary(t *testing.T) {
	for _, c := range []struct{ k, wAbs int64 }{{65793, 128}, {8421504, 1}} {
		if !SwarLegal(c.k, 255, c.wAbs) {
			t.Fatalf("K=%d, wAbs=%d must be legal: %d ≤ 2³¹−1", c.k, c.wAbs, c.k*255*c.wAbs)
		}
		if SwarLegal(c.k+1, 255, c.wAbs) {
			t.Fatalf("K=%d, wAbs=%d must be illegal: %d > 2³¹−1", c.k+1, c.wAbs, (c.k+1)*255*c.wAbs)
		}
		// The bound really is exact, not merely monotone.
		if p := c.k * 255 * c.wAbs; p > SwarLaneMax {
			t.Fatalf("%d·255·%d = %d exceeds the lane max %d", c.k, c.wAbs, p, int64(SwarLaneMax))
		}
		if p := (c.k + 1) * 255 * c.wAbs; p <= SwarLaneMax {
			t.Fatalf("%d·255·%d = %d fits the lane max %d", c.k+1, c.wAbs, p, int64(SwarLaneMax))
		}
	}
}

func TestSwarLegalEdgeCases(t *testing.T) {
	// Zero on any axis is trivially legal (the sum is 0).
	for _, c := range [][3]int64{{0, 255, 128}, {100, 0, 128}, {100, 255, 0}} {
		if !SwarLegal(c[0], c[1], c[2]) {
			t.Fatalf("SwarLegal%v = false, want true", c)
		}
	}
	// Negative arguments are rejected.
	for _, c := range [][3]int64{{-1, 255, 128}, {1, -1, 128}, {1, 255, -1}} {
		if SwarLegal(c[0], c[1], c[2]) {
			t.Fatalf("SwarLegal%v = true, want false", c)
		}
	}
	// Arguments whose product overflows int64 must not wrap to legal.
	if SwarLegal(1<<40, 1<<30, 1<<30) {
		t.Fatal("huge operands wrapped to legal")
	}
	if !SwarLegal(1, SwarLaneMax, 1) {
		t.Fatal("1·laneMax·1 must be legal")
	}
	if SwarLegal(2, SwarLaneMax, 1) {
		t.Fatal("2·laneMax·1 must be illegal")
	}
	// K·255·255 ≤ 2³²−1 would fit an unsigned lane, not a signed one.
	if SwarLegal(66051, 255, 128) {
		t.Fatal("K=66051 at full spans must be illegal: 66051·255·128 > 2³¹−1")
	}
}

// TestPackLanesRoundTrip: lane packing and extraction are inverses over
// the whole int32 range of both lanes, and signed lane sums accumulate
// exactly mod 2⁶⁴ — a negative low lane borrows from the high half and
// the decode gives it back — while each final lane sum fits int32.
func TestPackLanesRoundTrip(t *testing.T) {
	const mn, mx = -1 << 31, 1<<31 - 1
	cases := [][2]int32{
		{0, 0}, {1, 0}, {0, 1}, {-1, 0}, {0, -1}, {-1, -1}, {-1, 1}, {1, -1},
		{-128, 127}, {127, -128}, {mn, mx}, {mx, mn}, {mn, mn}, {mx, mx}, {-12345, 67890},
	}
	for _, c := range cases {
		w := PackLanes2(c[0], c[1])
		if got := LaneLo(w); got != int64(c[0]) {
			t.Fatalf("LaneLo(Pack(%d,%d)) = %d", c[0], c[1], got)
		}
		if got := LaneHi(w); got != int64(c[1]) {
			t.Fatalf("LaneHi(Pack(%d,%d)) = %d", c[0], c[1], got)
		}
	}
	// Random lane pairs over the whole int32 range of both lanes.
	g := rand.New(rand.NewPCG(52, 2))
	for i := 0; i < 100000; i++ {
		w0, w1 := int32(g.Uint32()), int32(g.Uint32())
		if w := PackLanes2(w0, w1); LaneLo(w) != int64(w0) || LaneHi(w) != int64(w1) {
			t.Fatalf("Pack(%d,%d) decodes to (%d, %d)", w0, w1, LaneLo(w), LaneHi(w))
		}
	}
	// Cross-lane borrow: a low lane that ends negative leaves its sign in
	// the high half of the word, which the decode must remove.
	if acc := 3*PackLanes2(-5, 7) + 2*PackLanes2(1, -2); LaneLo(acc) != -13 || LaneHi(acc) != 17 {
		t.Fatalf("borrowed lanes decode to (%d, %d), want (-13, 17)", LaneLo(acc), LaneHi(acc))
	}
	// Accumulated multiply-adds stay per-lane exact over K = 65793 taps of
	// both signs: the low lane ends negative, the high lane positive.
	var acc uint64
	var lo, hi int64
	for i := 0; i < 65793; i++ {
		a := uint64(255 - i%3)
		w0, w1 := int32(-128), int32(127)
		if i%7 == 0 {
			w0, w1 = 127, -128
		}
		acc += a * PackLanes2(w0, w1)
		lo += int64(a) * int64(w0)
		hi += int64(a) * int64(w1)
	}
	if LaneLo(acc) != lo || LaneHi(acc) != hi {
		t.Fatalf("lane sums (%d, %d) diverge from scalar (%d, %d)",
			LaneLo(acc), LaneHi(acc), lo, hi)
	}
	if lo >= 0 || hi <= 0 {
		t.Fatalf("edge sums (%d, %d) should straddle zero", lo, hi)
	}
	// Full-magnitude edge: 65793 taps of 255·(−128) is the most negative
	// sum the rule admits; the high lane at 255·127 per tap.
	acc, lo, hi = 0, 0, 0
	for i := 0; i < 65793; i++ {
		acc += 255 * PackLanes2(-128, 127)
		lo += 255 * -128
		hi += 255 * 127
	}
	if LaneLo(acc) != lo || LaneHi(acc) != hi {
		t.Fatalf("edge lane sums (%d, %d) diverge from scalar (%d, %d)",
			LaneLo(acc), LaneHi(acc), lo, hi)
	}
}
