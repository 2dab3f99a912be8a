package engine

// White-box SWAR tests: the dense and pair-skipping cores against a
// plain int64 dot product over the biased bytes, the storage pass's lane-overflow legality
// rule at its exact boundary, and the intra-op tile splitter.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"torch2chip/internal/tensor"
)

// swarCoreCase is one core input: raw [o, k] weights and raw [m, k]
// activation codes stored at activation bias ba (128 for i8, 0 for u8).
type swarCoreCase struct {
	name    string
	w, a    []int64
	o, k, m int
	ba      int64
}

// TestSwarCoreOracle: the dense and pair-skipping SWAR cores return the
// plain int64 dot product S' = Σ a'·w of the biased bytes a' = a + ba
// (the bias term ba·Σw lives in the epilogue's folded bias) of every
// (site, channel) in both tile layouts
// — the conv's channel-major tile (cs = m, rs = 1) and the linear's
// row-major one (cs = 1, rs = o). Random draws cover o 1–13 (partial
// panels), K 1–300, sites 1–9 (the 4-site blocks and the tail), i8 and
// u8 activation storage, weights all negative, all positive or mixed,
// with and without zeros (dead pair positions for the skipping core).
// Fixed rows sit at the legality edge K·255·128 ≤ 2³¹−1, where a low
// lane ends at its most negative and borrows from the high lane.
func TestSwarCoreOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(52, 1))
	seen := map[string]int{}
	for n := 0; n < 500; n++ {
		c := swarCoreCase{o: 1 + r.IntN(13), k: 1 + r.IntN(300), m: 1 + r.IntN(9), ba: 128}
		if n%2 == 1 {
			c.ba = 0
		}
		// Weights: all negative, all positive or mixed, and in one draw
		// of two about half of them zero.
		mode := r.IntN(3)
		zeros := r.IntN(2) == 0
		c.w = make([]int64, c.o*c.k)
		for i := range c.w {
			switch mode {
			case 0:
				c.w[i] = -1 - r.Int64N(128)
			case 1:
				c.w[i] = 1 + r.Int64N(127)
			default:
				c.w[i] = r.Int64N(256) - 128
			}
			if zeros && r.IntN(2) == 0 {
				c.w[i] = 0
			}
		}
		c.a = make([]int64, c.m*c.k)
		for i := range c.a {
			c.a[i] = r.Int64N(256) - c.ba
		}
		c.name = fmt.Sprintf("draw %d (o=%d k=%d m=%d ba=%d mode=%d zeros=%v)", n, c.o, c.k, c.m, c.ba, mode, zeros)
		checkSwarCores(t, c)
		seen[fmt.Sprintf("mode%d", mode)]++
		if c.o%panelW != 0 {
			seen["partial panel"]++
		}
		if c.m >= 4 && c.m%4 != 0 {
			seen["block and tail"]++
		}
		seen[fmt.Sprintf("ba%d", c.ba)]++
	}
	for _, key := range []string{"mode0", "mode1", "mode2", "partial panel", "block and tail", "ba0", "ba128"} {
		if seen[key] < 20 {
			t.Fatalf("coverage: %q drawn %d times", key, seen[key])
		}
	}

	// Edge rows: K = 65793 taps of byte 255 (the largest K the rule
	// admits at wAbs 128). Channel 0 is all −128, so its low lane ends at
	// 65793·255·(−128) = −2³¹+128 and borrows from channel 1's high lane;
	// channels 2 and 3 put the negative extreme in the high lane. Five
	// sites run the 4-site block and the tail; the fifth site's bytes are
	// mixed, and a sixth channel makes a partial second panel.
	const kEdge = 65793
	for _, ba := range []int64{128, 0} {
		c := swarCoreCase{name: fmt.Sprintf("edge ba=%d", ba), o: 6, k: kEdge, m: 5, ba: ba}
		c.w = make([]int64, c.o*c.k)
		lanes := []int64{-128, 127, 127, -128, -128, 1}
		for oc, v := range lanes {
			for j := 0; j < c.k; j++ {
				c.w[oc*c.k+j] = v
			}
		}
		c.a = make([]int64, c.m*c.k)
		for i := range c.a {
			c.a[i] = 255 - ba
			if i >= 4*c.k && i%3 == 0 {
				c.a[i] = -ba
			}
		}
		checkSwarCores(t, c)
	}
}

// checkSwarCores runs both SWAR cores over c in both tile layouts into
// garbage-filled tiles and compares every accumulator with the int64
// dot product of the biased bytes.
func checkSwarCores(t *testing.T, c swarCoreCase) {
	t.Helper()
	if !swarEligible(int64(c.k), tensor.I8, -128, 127) {
		t.Fatalf("%s: K past the legality bound", c.name)
	}
	want := make([]int64, c.m*c.o)
	for s := 0; s < c.m; s++ {
		for oc := 0; oc < c.o; oc++ {
			var d int64
			for j := 0; j < c.k; j++ {
				d += (c.a[s*c.k+j] + c.ba) * c.w[oc*c.k+j]
			}
			want[s*c.o+oc] = d
		}
	}
	panel := make([]uint8, c.m*c.k)
	for i, v := range c.a {
		panel[i] = uint8(v + c.ba)
	}
	wps := packPanelsSwar(c.w, c.o, c.k)
	sk := buildPanelSkip(c.w, c.o, c.k)
	np := (c.o + panelW - 1) / panelW
	acc := make([]int32, c.o*c.m)
	for _, lay := range []struct {
		name   string
		cs, rs int
	}{{"conv", c.m, 1}, {"linear", 1, c.o}} {
		for _, core := range []string{"swar", "swar-sparse"} {
			for i := range acc {
				acc[i] = garbage
			}
			if core == "swar" {
				gemmPanelsSwar(acc, panel, wps, c.m, c.k, c.o, np, lay.cs, lay.rs)
			} else {
				gemmPanelsSwarSparse(acc, panel, wps, sk, c.m, c.k, c.o, np, lay.cs, lay.rs)
			}
			for s := 0; s < c.m; s++ {
				for oc := 0; oc < c.o; oc++ {
					if got := int64(acc[oc*lay.cs+s*lay.rs]); got != want[s*c.o+oc] {
						t.Fatalf("%s %s %s: site %d channel %d = %d, want %d", c.name, core, lay.name, s, oc, got, want[s*c.o+oc])
					}
				}
			}
		}
	}
}

// TestSwarEligibleBoundary: with int8 activations (full span 255) and
// weights in [−128, 127] (|w| ≤ 128), the signed-lane SWAR path is legal
// up to K = 65793 (65793·255·128 ≤ 2³¹−1) and must fall back at
// K = 65794.
func TestSwarEligibleBoundary(t *testing.T) {
	if !swarEligible(65793, tensor.I8, -128, 127) {
		t.Fatal("K=65793 with full i8 spans must bind the SWAR path")
	}
	if swarEligible(65794, tensor.I8, -128, 127) {
		t.Fatal("K=65794 with full i8 spans must fall back to the int32 panel")
	}
	// U8 activations span the same 255 codes.
	if !swarEligible(65793, tensor.U8, -128, 127) || swarEligible(65794, tensor.U8, -128, 127) {
		t.Fatal("u8 storage must share the i8 boundary")
	}
	// The bound takes the larger weight magnitude, whichever its sign.
	if !swarEligible(65793, tensor.I8, -128, 0) || swarEligible(65794, tensor.I8, -128, 0) {
		t.Fatal("all-negative weights to −128 must share the full-span boundary")
	}
	// Narrower weights relax the K bound proportionally: weights in
	// [0, 1] admit K up to (2³¹−1)/255 = 8421504.
	if !swarEligible(8421504, tensor.I8, 0, 1) {
		t.Fatal("weights in [0, 1] must admit K = 8421504")
	}
	if swarEligible(8421505, tensor.I8, 0, 1) {
		t.Fatal("weights in [0, 1] must reject K = 8421505")
	}
	// 16-bit activations span 65535: even tiny K overflows quickly.
	if swarEligible(1<<16, tensor.I16, -128, 127) {
		t.Fatal("i16 activations at K=65536 must not bind SWAR")
	}
}

func TestSplitTileM(t *testing.T) {
	// One sample, 1024 sites, 64-site tile: 16 jobs already cover 8
	// workers — no split.
	if got := splitTileM(64, 1024, 1, 8); got != 64 {
		t.Fatalf("splitTileM kept-grid case: got %d, want 64", got)
	}
	// 64 sites in one 64-site tile is a single job; 8 workers force the
	// tile down to 8 sites (8 jobs).
	if got := splitTileM(64, 64, 1, 8); got != 8 {
		t.Fatalf("splitTileM split case: got %d, want 8", got)
	}
	// The floor holds even when the grid can never reach the worker count.
	if got := splitTileM(64, 8, 1, 64); got != 8 {
		t.Fatalf("splitTileM floor case: got %d, want 8", got)
	}
	// Serial executors never split.
	if got := splitTileM(64, 64, 1, 1); got != 64 {
		t.Fatalf("splitTileM serial case: got %d, want 64", got)
	}
}
