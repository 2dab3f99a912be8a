package engine

// White-box epilogue test: the states newEpi binds — every per-channel
// correction folded into the bias, the folded rounding where its bound
// is proven — finish accumulators through finishSegOut and
// finishRowsOut exactly as the unfolded reference funnel does.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

// epiDTypes are the output storage dtypes and the scaler output range
// each one holds.
var epiDTypes = []struct {
	dt     tensor.DType
	bits   int
	signed bool
}{
	{tensor.I8, 8, true}, {tensor.U8, 8, false}, {tensor.I16, 16, true},
	{tensor.U16, 16, false}, {tensor.I32, 32, true}, {tensor.I64, 32, false},
}

// randScaler draws a MulQuant with int16 scales, int32 biases, a random
// INT16 split and a zero point inside its output range.
func randScaler(r *rand.Rand, ch, bits int, signed bool) *intmath.MulQuant {
	frac := 1 + r.IntN(15)
	m := &intmath.MulQuant{
		ScaleFx: make([]int16, ch), BiasFx: make([]int32, ch),
		FracBits: frac, IntBits: 16 - frac, OutBits: bits, OutSigned: signed,
	}
	for i := range m.ScaleFx {
		m.ScaleFx[i] = int16(r.Uint32())
		m.BiasFx[i] = int32(r.Uint32())
	}
	lo, hi := m.OutRange()
	m.OutZero = lo + r.Int64N(hi-lo+1)
	return m
}

// epiCase is one epilogue input: an instruction with its [o, k]
// weights, the input zero point (plus the SWAR activation bias) the
// accumulators carry, and whether the bind must fall back to
// Requantize.
type epiCase struct {
	name     string
	it       *Instr
	o, m     int
	z        int64
	fallback bool
}

// TestEpilogueOracle: for random o, sites, int16 scales, int32 biases,
// zero points, fracs and weight row sums, newEpi's folded state finishes
// every accumulator to Requantize(a − corr, sfx, bfx, …) (corr = z·Σw)
// followed by the fused rescale and add, through finishSegOut (the
// conv's channel segments) and finishRowsOut (the linear's row tiles),
// into every output dtype, with the fused add off, on over a separate
// operand, and on in place over its own operand. Every int32 draw binds
// the folded rounding, except the rows drawn to fail its bound — an
// output zero point past 2⁶² >> frac, one that fits alone but not beside
// the largest product, or a correction whose product with the scale
// overflows int64 — which bind the Requantize fallback over
// the wrapped folded bias and must match all the same; the int64
// instantiation has no accumulator bound and always falls back.
func TestEpilogueOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(55, 3))
	seen := map[string]int{}
	for n := 0; n < 1200; n++ {
		d := epiDTypes[n%len(epiDTypes)]
		o, k, m := 1+r.IntN(9), 1+r.IntN(6), 1+r.IntN(20)
		ch := o
		if r.IntN(4) == 0 {
			ch = 1
		}
		c := epiCase{o: o, m: m, z: r.Int64N(512) - 256}
		it := &Instr{Kind: OpConv, W: tensor.NewInt(o, k)}
		for i := range it.W.Data {
			it.W.Data[i] = r.Int64N(256) - 128
		}
		// The own scaler, a folded rescale and a folded add in every
		// combination; whichever stage runs last sets the output range.
		fused := n / len(epiDTypes) % 4
		own := epiDTypes[r.IntN(len(epiDTypes))]
		if fused == 0 {
			own = d
		}
		it.Scaler = randScaler(r, ch, own.bits, own.signed)
		if fused&1 != 0 {
			re := d
			if fused&2 != 0 {
				re = epiDTypes[r.IntN(len(epiDTypes))]
			}
			it.FusedRescale = randScaler(r, 1, re.bits, re.signed)
		}
		if fused&2 != 0 {
			it.FusedAdd = true
			it.Shift = r.IntN(4)
			it.ClampLo, it.ClampHi = d.dt.Range()
			if d.dt == tensor.I64 {
				it.ClampLo, it.ClampHi = 0, 1<<32-1
			}
		}
		switch n % 7 {
		case 3:
			c.fallback = true
			it.Scaler.OutZero = 1 << 61
		case 5:
			c.fallback = true
			c.z = 1 << 58
			it.Scaler.ScaleFx[0] = 1000
			for j := 0; j < k; j++ {
				it.W.Data[j] = 100
			}
		case 6:
			// |hz| alone fits, but not with |a·sfx| ≥ 2³¹·1000 beside it.
			c.fallback = true
			it.Scaler.ScaleFx[0] = 1000
			it.Scaler.OutZero = (1<<62 - 1<<40) >> it.Scaler.FracBits
		}
		c.it = it
		c.name = fmt.Sprintf("draw %d (%s o=%d k=%d m=%d ch=%d fused=%d z=%d fallback=%v)", n, d.dt, o, k, m, ch, fused, c.z, c.fallback)
		checkEpilogue[int32](t, r, c, d.dt)
		checkEpilogue[int64](t, r, c, d.dt)
		seen[fmt.Sprintf("fused%d", fused)]++
		seen[d.dt.String()]++
		if c.fallback {
			seen["fallback"]++
		}
	}
	for _, key := range []string{"fused0", "fused1", "fused2", "fused3", "i8", "u8", "i16", "u16", "i32", "i64", "fallback"} {
		if seen[key] < 20 {
			t.Fatalf("coverage: %q drawn %d times", key, seen[key])
		}
	}
}

// checkEpilogue binds c's epilogue at accumulator width C and finishes
// random accumulators through both drivers' finishers into dt, with
// the fused add (if any) over a separate operand and in place.
func checkEpilogue[C accum](t *testing.T, r *rand.Rand, c epiCase, dt tensor.DType) {
	t.Helper()
	it, o, m := c.it, c.o, c.m
	e := newEpi(it, o, it.W.Data, c.z, accMax[C]())
	if want := !isWide[C]() && !c.fallback; e.folded != want {
		t.Fatalf("%s C=%T: folded %v, want %v", c.name, C(0), e.folded, want)
	}
	if it.FusedRescale != nil && !e.fc.reFolded {
		t.Fatalf("%s: the fused rescale over a ≤ 32-bit range did not fold", c.name)
	}
	k := it.W.Shape[1]
	sfx, bfx := it.Scaler.Expand(o)
	half, frac, zero, lo, hi := it.Scaler.Consts()
	ref := func(a int64, oc int, addv int64) int64 {
		var sum int64
		for _, w := range it.W.Data[oc*k : (oc+1)*k] {
			sum += w
		}
		q := intmath.Requantize(a-c.z*sum, sfx[oc], bfx[oc], half, frac, zero, lo, hi)
		if re := it.FusedRescale; re != nil {
			rh, rf, rz, rl, rhi := re.Consts()
			q = intmath.Requantize(q, int64(re.ScaleFx[0]), int64(re.BiasFx[0]), rh, rf, rz, rl, rhi)
		}
		if it.FusedAdd {
			q = addShiftClamp(q+addv, it.Shift, addHalfOf(it.Shift), it.ClampLo, it.ClampHi)
		}
		return q
	}
	acc := make([]C, o*m)
	for i := range acc {
		acc[i] = C(r.Uint64())
	}
	// Fused-branch codes span the storage range (±2⁴⁰ for I64).
	dlo, dhi := dt.Range()
	if dt == tensor.I64 {
		dlo, dhi = -1<<40, 1<<40
	}
	branch := func(n int) *tensor.IntTensor {
		b := tensor.NewTyped(dt, n)
		for i := 0; i < n; i++ {
			b.Put(i, dlo+r.Int64N(dhi-dlo+1))
		}
		return b
	}
	modes := []string{"no add"}
	if it.FusedAdd {
		modes = []string{"add", "add in place"}
	}
	for _, mode := range modes {
		// The conv's channel-major segments: channel oc's m sites at
		// oc·m.
		out := tensor.NewTyped(dt, o*m)
		var add *tensor.IntTensor
		switch mode {
		case "add":
			add = branch(o * m)
		case "add in place":
			out = branch(o * m)
			add = out
		}
		want := make([]int64, o*m)
		for oc := 0; oc < o; oc++ {
			for i := 0; i < m; i++ {
				var addv int64
				if add != nil {
					addv = add.Get(oc*m + i)
				}
				want[oc*m+i] = ref(int64(acc[oc*m+i]), oc, addv)
			}
		}
		bv := make([]int64, m)
		for oc := 0; oc < o; oc++ {
			var bvv []int64
			if add != nil {
				bvv = bv
				add.ReadInt64(bvv, oc*m)
			}
			finishSegOut(out, oc*m, acc[oc*m:(oc+1)*m], bvv, &e, oc)
		}
		for i, w := range want {
			if got := out.Get(i); got != w {
				t.Fatalf("%s C=%T finishSegOut %s: channel %d site %d = %d, want %d", c.name, C(0), mode, i/m, i%m, got, w)
			}
		}

		// The linear's row-major tile [m][o] finished at row r0.
		r0 := r.IntN(3)
		out = tensor.NewTyped(dt, (r0+m)*o)
		add = nil
		switch mode {
		case "add":
			add = branch((r0 + m) * o)
		case "add in place":
			out = branch((r0 + m) * o)
			add = out
		}
		for i := range want {
			var addv int64
			if add != nil {
				addv = add.Get(r0*o + i)
			}
			want[i] = ref(int64(acc[i]), i%o, addv)
		}
		finishRowsOut(out, r0, acc, add, make([]int64, o), &e)
		for i, w := range want {
			if got := out.Get(r0*o + i); got != w {
				t.Fatalf("%s C=%T finishRowsOut %s: row %d channel %d = %d, want %d", c.name, C(0), mode, i/o, i%o, got, w)
			}
		}
	}
}
