package engine

// Oracle tests for the attention kernels FastKernels binds at storage
// width: the packed-panel matmul against the serial int64 body, and the
// reciprocal softmax against the 64-bit divide of LUTSoftmax.ApplyRow.

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

// randTyped fills a new [shape] tensor of dtype dt with codes in [lo, hi].
func randTyped(r *rand.Rand, dt tensor.DType, lo, hi int64, shape ...int) *tensor.IntTensor {
	t := tensor.NewTyped(dt, shape...)
	v := make([]int64, t.Numel())
	for i := range v {
		v[i] = lo + r.Int64N(hi-lo+1)
	}
	t.WriteInt64(v, 0)
	return t
}

// readAll widens a typed tensor's codes.
func readAll(t *tensor.IntTensor) []int64 {
	v := make([]int64, t.Numel())
	t.ReadInt64(v, 0)
	return v
}

// mmOperand draws one operand's code range inside dtype dt — at full
// width or as a narrower window — and a nonzero zero point inside it.
func mmOperand(r *rand.Rand, dt tensor.DType) (bufRange, int64) {
	lo, hi := dt.Range()
	if r.IntN(2) == 0 {
		w := int64(1) << r.IntN(10)
		c := lo + r.Int64N(hi-lo+1)
		lo, hi = max(lo, c-w), min(hi, c+w)
	}
	z := lo + r.Int64N(hi-lo+1)
	if z == 0 {
		z = hi
		if hi == 0 {
			z = lo
		}
	}
	return bufRange{lo: lo, hi: hi, ok: true}, z
}

// packedMatMul runs every batch entry through mmPackT[C].entry on
// garbage-filled scratch, as a bound job would.
func packedMatMul[C accum](it *Instr, a, b, out *tensor.IntTensor, m, k, n int) {
	st := &mmPackT[C]{m: m, k: k, n: n, np: ceilDiv(n, panelW), epi: newEpi(it, 1, nil, 0, accMax[C]())}
	pa := make([]C, m*k)
	pb := make([]C, st.np*k*panelW)
	acc := make([]C, n*m)
	for _, s := range [][]C{pa, pb, acc} {
		for i := range s {
			s[i] = C(0x5a5a5a5a)
		}
	}
	for bi := 0; bi < a.Shape[0]; bi++ {
		st.entry(pa, pb, acc, a, b, out, bi, it)
	}
}

// TestPackedMatMulMatchesSerial: the packed-panel matmul at both
// accumulator widths equals the serial int64 body (stageShift +
// matMulBatch) bit for bit, over every operand dtype pair, nonzero zero
// points, QKᵀ and attn·V layouts, and M, K, N in [1, 70] including odd
// M and N not a multiple of the panel width. The int32 instantiation
// runs only on operands matMulTyped admits, as at bind.
func TestPackedMatMulMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewPCG(43, 1))
	dts := []tensor.DType{tensor.I8, tensor.U8, tensor.I16, tensor.U16, tensor.I32}
	dims := [][3]int{{1, 1, 1}, {70, 70, 70}, {17, 16, 17}, {17, 17, 16}, {3, 70, 5}, {1, 9, 70}, {70, 1, 2}}
	cases := 0
	for _, adt := range dts {
		for _, bdt := range dts {
			for _, transB := range []bool{true, false} {
				for wide := range 2 {
					m, k, n := 1+r.IntN(70), 1+r.IntN(70), 1+r.IntN(70)
					if cases < len(dims) {
						m, k, n = dims[cases][0], dims[cases][1], dims[cases][2]
					}
					cases++
					ra, za := mmOperand(r, adt)
					rb, zb := mmOperand(r, bdt)
					if wide == 0 {
						// Shrink both windows toward their zero points
						// until the int32 bound holds.
						for !matMulTyped(int64(k), ra, rb, za, zb) {
							ra = bufRange{lo: max(ra.lo, za-ra.maxDist(za)/2), hi: min(ra.hi, za+ra.maxDist(za)/2), ok: true}
							rb = bufRange{lo: max(rb.lo, zb-rb.maxDist(zb)/2), hi: min(rb.hi, zb+rb.maxDist(zb)/2), ok: true}
						}
					}
					batches := 1 + r.IntN(3)
					bShape := []int{batches, k, n}
					if transB {
						bShape = []int{batches, n, k}
					}
					a := randTyped(r, adt, ra.lo, ra.hi, batches, m, k)
					b := randTyped(r, bdt, rb.lo, rb.hi, bShape...)
					// Scale the products of typical magnitude into the
					// output range so the comparison sees unsaturated codes.
					typical := math.Sqrt(float64(k)) * float64(max(ra.maxDist(za), 1)) * float64(max(rb.maxDist(zb), 1))
					scale := float32(min(max(64/typical, 1.0/(1<<14)), 0.99))
					outBits, signed := 8, r.IntN(2) == 0
					if r.IntN(2) == 0 {
						outBits = 16
					}
					sc, err := intmath.NewMulQuant([]float32{scale}, []float32{float32(r.IntN(9) - 4)}, 1, 15, outBits, signed, 0)
					if err != nil {
						t.Fatal(err)
					}
					it := &Instr{Kind: OpMatMul, TransposeB: transB, ZA: za, ZB: zb, Scaler: sc}
					odt := sc.OutDType()

					want := tensor.NewTyped(odt, batches, m, n)
					av, bv, ov := make([]int64, m*k), make([]int64, k*n), make([]int64, m*n)
					for bi := range batches {
						stageShift(av, a, bi*m*k, za)
						stageShift(bv, b, bi*k*n, zb)
						matMulBatch(ov, av, bv, m, k, n, transB, sc)
						want.WriteInt64(ov, bi*m*n)
					}
					got := tensor.NewTyped(odt, batches, m, n)
					if wide == 0 {
						packedMatMul[int32](it, a, b, got, m, k, n)
					} else {
						packedMatMul[int64](it, a, b, got, m, k, n)
					}
					if g, w := readAll(got), readAll(want); !slices.Equal(g, w) {
						i := 0
						for g[i] == w[i] {
							i++
						}
						t.Fatalf("%v×%v transB=%v int64=%v M,K,N=%d,%d,%d ZA=%d ZB=%d: code[%d] = %d, serial %d",
							adt, bdt, transB, wide == 1, m, k, n, za, zb, i, g[i], w[i])
					}
				}
			}
		}
	}
}

// TestMatMulBindsAccumulatorWidth pins the accBound edge at bind: a
// K·max|a−ZA|·max|b−ZB| of exactly MaxInt32 binds the int32 GEMM, one
// more binds int64, and so does an executor planned without typed
// storage (an I64-arena registry).
func TestMatMulBindsAccumulatorWidth(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k      int
		ra, rb bufRange
		za, zb int64
		want   string
	}{
		// 1 · 1 · (2³¹−1): the bound exactly.
		{"max-int32", 1, bufRange{5, 6, true}, bufRange{-3, math.MaxInt32 - 3, true}, 5, -3, "matmul-i32"},
		// 2 · 1 · 2³⁰ = 2³¹: one past it.
		{"max-int32+1", 2, bufRange{-1, 1, true}, bufRange{1, 1<<30 + 1, true}, 0, 1, "matmul-i64"},
		{"i64-arenas", 1, bufRange{}, bufRange{}, 0, 0, "matmul-i64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			it := &Instr{Kind: OpMatMul, In: []int{0, 1}, Out: 2, ZA: tc.za, ZB: tc.zb, TransposeB: true,
				Scaler: &intmath.MulQuant{ScaleFx: []int16{1}, BiasFx: []int32{0}, FracBits: 8, IntBits: 8, OutBits: 8, OutSigned: true}}
			ex := &Executor{bound: 1, plan: &Plan{Shapes: [][]int{{1, 3, tc.k}, {1, 4, tc.k}, {1, 3, 4}},
				DTypes: make([]tensor.DType, 3), Offsets: make([]int, 3)}}
			if tc.ra.ok {
				ex.stor = &storageInfo{rng: []bufRange{tc.ra, tc.rb, {}}, typed: make([]bool, 1)}
			}
			st, err := prepMatMul(ex, 0, it)
			if err != nil {
				t.Fatal(err)
			}
			ex.states = []any{st}
			ex.prog = &Program{Instrs: []Instr{*it}}
			if got := ex.KernelChoices()[0].Path; got != tc.want {
				t.Fatalf("bound %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSoftmaxReciprocalMatchesDivide checks the reciprocal softmax at
// two levels: the division identity ⌊n/Σ⌋ = hi64(⌈2⁶⁴/Σ⌉·n) over
// random and edge (n, Σ) below 2³², and whole rows against
// LUTSoftmax.ApplyRow, including tables that force each fallback.
func TestSoftmaxReciprocalMatchesDivide(t *testing.T) {
	const lim = uint64(1) << 32
	check := func(n, d uint64) {
		if n >= lim || d < 2 || d >= lim {
			return
		}
		if got := divRecip(n, recipOf(d)); got != n/d {
			t.Fatalf("divRecip(%d, recipOf(%d)) = %d, want %d", n, d, got, n/d)
		}
	}
	r := rand.New(rand.NewPCG(44, 2))
	for range 1 << 20 {
		// Log-uniform divisors, so small and large Σ both occur.
		d := uint64(2) + r.Uint64N(uint64(1)<<(1+r.IntN(32)))
		check(r.Uint64N(lim), d)
	}
	var ds []uint64
	for k := 1; k <= 32; k++ {
		ds = append(ds, 1<<k-1, 1<<k, 1<<k+1)
	}
	ds = append(ds, 3, lim-1)
	for _, d := range ds {
		q := (lim - 1) / d
		for _, n := range []uint64{0, d - 1, d, q*d - 1, q * d, lim - 1} {
			check(n, d)
		}
	}

	// Rows: the production table, plus hand-built tables for each path.
	prod := intmath.NewLUTSoftmax(-128, 127, 0.05, 8)
	table := func(outBits int, f func(i int) int64) *intmath.LUTSoftmax {
		tb := make([]int64, 256)
		for i := range tb {
			tb[i] = f(i)
		}
		return &intmath.LUTSoftmax{Exp: &intmath.LUT{InMin: -255, InMax: 0, Table: tb}, OutBits: outBits}
	}
	for _, tc := range []struct {
		name  string
		sm    *intmath.LUTSoftmax
		recip bool // the bind-time verdict
	}{
		{"production-8bit", prod, true},
		{"production-16bit", &intmath.LUTSoftmax{Exp: prod.Exp, OutBits: 16}, true},
		// Σ == 1 on every row with a unique maximum (q = n).
		{"sum-one", table(16, func(i int) int64 { return int64(i / 255) }), true},
		{"all-zero", table(8, func(int) int64 { return 0 }), true},
		{"negative-entry", table(16, func(i int) int64 { return int64(i*97%1000) - 3 }), false},
		// tmax·S = 2³²−2¹⁶: rows whose Σ/2 reaches 2¹⁶ divide.
		{"numerator-2^32-per-row", table(16, func(i int) int64 { return 1<<16 - int64(i%7)*9000 }), true},
		// tmax·S ≥ 2³²: every row divides.
		{"numerator-2^32-table", table(16, func(i int) int64 { return 1<<40 + int64(i)*12345 }), false},
		// Σ ≥ 2³² with S = 1.
		{"sum-2^32", table(1, func(i int) int64 { return 1<<31 + int64(i) }), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stAny, err := prepSoftmax(nil, 0, &Instr{SM: tc.sm})
			if err != nil {
				t.Fatal(err)
			}
			st := stAny.(*smPack)
			if st.recip != tc.recip {
				t.Fatalf("bind-time reciprocal verdict %v, want %v", st.recip, tc.recip)
			}
			for _, d := range []int{1, 2, 3, 17, 65} {
				rows := 40
				x := randTyped(r, tensor.I16, -300, 300, rows, d)
				// A third of the rows repeat one code, so ties at the
				// maximum (and Σ of several tmax entries) occur.
				v := readAll(x)
				for i := 0; i < rows; i += 3 {
					for j := range d {
						v[i*d+j] = v[i*d]
					}
				}
				x.WriteInt64(v, 0)
				want := make([]int64, rows*d)
				es := make([]int64, d)
				for i := range rows {
					tc.sm.ApplyRow(want[i*d:(i+1)*d], v[i*d:(i+1)*d], es)
				}
				for _, odt := range []tensor.DType{tensor.U16, tensor.I64} {
					out := tensor.NewTyped(odt, rows, d)
					wantT := tensor.NewTyped(odt, rows, d)
					wantT.WriteInt64(want, 0)
					softmaxOut(st, tc.sm, x.I16, out, d, es)
					if g, w := readAll(out), readAll(wantT); !slices.Equal(g, w) {
						t.Fatalf("d=%d out %v: codes %v, ApplyRow %v", d, odt, g, w)
					}
				}
			}
		})
	}
}
