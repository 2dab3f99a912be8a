package engine

// Oracle test for the grouped/depthwise conv driver: random grouped and
// depthwise programs run through the fast registry and its int64
// variant, bit for bit against the reference kernels, over every input
// storage dtype, nonzero zero points and the fused residual add.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"torch2chip/internal/intmath"
	"torch2chip/internal/quant"
	"torch2chip/internal/tensor"
)

// gconvInputs are input quantizers whose code ranges store as I8, U8,
// I16, U16, I32 and I64.
var gconvInputs = []struct {
	bits   int
	signed bool
}{{8, true}, {8, false}, {16, true}, {16, false}, {18, true}, {34, true}}

// randGroupedProgram draws a grouped conv program InferShapes admits:
// groups 2–4 of cg 1–4 input channels (cg = 1 is depthwise) and og 1–3
// output channels, kH and kW 1–5 with every third draw 3×3 depthwise,
// stride 1–3, padding 0 to max(kH, kW)+1, h and w 1–12, a nonzero
// input zero point, and an output zero point mid-range when unsigned. With fusedAdd the program runs the conv twice, the
// second time adding the first's output in place. It returns the input
// shape at batch n and input codes drawn in a window around the zero
// point, so the requantized outputs stay mostly unsaturated.
func randGroupedProgram(t *testing.T, r *rand.Rand, draw, inType, n int, fusedAdd bool) (*Program, *tensor.IntTensor) {
	t.Helper()
	q := quant.NewQBase(gconvInputs[inType].bits, gconvInputs[inType].signed, false)
	lo, hi := q.QMin(), q.QMax()
	for {
		groups, cg, og := 2+r.IntN(3), 1+r.IntN(4), 1+r.IntN(3)
		kH, kW := 1+r.IntN(5), 1+r.IntN(5)
		if draw%3 == 0 {
			cg, kH, kW = 1, 3, 3
		}
		c, o := groups*cg, groups*og
		h, w := 1+r.IntN(12), 1+r.IntN(12)
		p := tensor.ConvParams{Stride: 1 + r.IntN(3), Padding: r.IntN(max(kH, kW) + 2), Groups: groups}
		in := []int{n, c, h, w}

		// Half the zero points lie near 0, as calibrated ones do, so the
		// padded taps' −z·w terms leave border sites unsaturated.
		span := int64(1) << r.IntN(10)
		z := lo + r.Int64N(hi-lo+1)
		if r.IntN(2) == 0 {
			z = min(max(r.Int64N(2*span+1)-span, lo), hi)
		}
		if z == 0 {
			z = 1
		}
		wt := tensor.NewInt(o, cg, kH, kW)
		for i := range wt.Data {
			wt.Data[i] = r.Int64N(255) - 127
		}
		typical := math.Sqrt(float64(cg*kH*kW)) * float64(span) * 127
		scale := make([]float32, o)
		bias := make([]float32, o)
		for i := range scale {
			scale[i] = float32(min(max(48/typical, 1.0/(1<<12)), 0.99) * (0.8 + 0.4*r.Float64()))
			bias[i] = float32(r.IntN(9) - 4)
		}
		outBits, outSigned := []int{8, 16}[r.IntN(2)], r.IntN(2) == 0
		outZero := int64(0)
		if !outSigned {
			outZero = 1 << (outBits - 1)
		}
		sc, err := intmath.NewMulQuant(scale, bias, 4, 12, outBits, outSigned, outZero)
		if err != nil {
			t.Fatal(err)
		}
		conv := Instr{Kind: OpConv, Name: "gconv", In: []int{0}, Out: 1, W: wt, P: p, InZero: z, Scaler: sc, WBits: 8}
		prog := &Program{InQuant: q, NumBufs: 2, Input: 0, Output: 1, InShape: in[1:]}
		if fusedAdd {
			second := conv
			second.Name, second.In, second.Out = "gconv+add", []int{0, 1}, 2
			second.FusedAdd, second.Shift = true, r.IntN(2)
			second.ClampLo, second.ClampHi = sc.OutRange()
			prog.Instrs = []Instr{conv, second}
			prog.NumBufs, prog.Output, prog.OptLevel = 3, 2, OptFuse
		} else {
			prog.Instrs = []Instr{conv}
		}
		if _, err := prog.InferShapes(in); err != nil {
			continue
		}
		x := tensor.NewInt(in...)
		for i := range x.Data {
			x.Data[i] = min(max(z-span+r.Int64N(2*span+1), lo), hi)
		}
		return prog, x
	}
}

// TestGroupedConvDriverOracle runs 300 random grouped and depthwise
// programs through FastKernels and FastKernelsWithout(CapTyped) and
// compares every output code with ReferenceKernels. The draws must bind
// both direct paths and reach the 3×3 row kernel, the tap-offset loop's
// remainder site (odd ow), every input dtype and the fused add.
func TestGroupedConvDriverOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(50, 1))
	regs := []struct {
		name string
		reg  *Registry
	}{
		{"fast", FastKernels()},
		{"no-typed", FastKernelsWithout(CapTyped)},
	}
	seen := map[string]int{}
	for draw := 0; draw < 300; draw++ {
		inType, fusedAdd := draw%len(gconvInputs), r.IntN(2) == 0
		prog, x := randGroupedProgram(t, r, draw, inType, 1+r.IntN(2), fusedAdd)
		st, err := prog.storage()
		if err != nil {
			t.Fatal(err)
		}
		it := &prog.Instrs[0]
		oh, ow := it.P.ConvOutSize(x.Shape[2], it.W.Shape[2]), it.P.ConvOutSize(x.Shape[3], it.W.Shape[3])
		label := fmt.Sprintf("draw %d: in %v %s z=%d, w %v, s%d p%d g%d → %d×%d, fused add %v",
			draw, x.Shape, st.dts[0], it.InZero, it.W.Shape, it.P.Stride, it.P.Padding, it.P.Groups, oh, ow, fusedAdd)
		ref, err := NewExecutor(prog, x.Shape, WithKernels(ReferenceKernels()))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := ref.ExecuteCodes(x, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, rc := range regs {
			ex, err := NewExecutor(prog, x.Shape, WithKernels(rc.reg))
			if err != nil {
				t.Fatalf("%s under %s: %v", label, rc.name, err)
			}
			for _, c := range ex.KernelChoices() {
				if c.Path != "i32-direct" && c.Path != "i64-direct" {
					t.Fatalf("%s under %s: %s bound %q, want a direct path", label, rc.name, c.Name, c.Path)
				}
				if rc.name == "no-typed" && c.Path != "i64-direct" {
					t.Fatalf("%s under no-typed: %s bound %q", label, c.Name, c.Path)
				}
				seen[c.Path]++
			}
			got, err := ex.ExecuteCodes(x, nil)
			if err != nil {
				t.Fatalf("%s under %s: %v", label, rc.name, err)
			}
			for i, v := range want.Data {
				if got.Data[i] != v {
					t.Fatalf("%s under %s: code[%d] = %d, reference %d", label, rc.name, i, got.Data[i], v)
				}
			}
		}
		ks := it.W.Shape
		if ks[1]*ks[2]*ks[3] == 9 && ks[3] == 3 {
			seen["3x3"]++
		}
		if ow%2 == 1 {
			seen["odd-ow"]++
		}
		if fusedAdd {
			seen["fused-add"]++
		}
		seen[st.dts[0].String()]++
	}
	t.Logf("coverage: %v", seen)
	for _, k := range []string{"i32-direct", "i64-direct", "odd-ow", "fused-add", "i8", "u8", "i16", "u16", "i32", "i64"} {
		if seen[k] == 0 {
			t.Errorf("no draw covered %s (coverage %v)", k, seen)
		}
	}
	if seen["3x3"] < 100 {
		t.Errorf("%d of 300 draws were 3×3 row-kernel draws, want at least 100", seen["3x3"])
	}
}
