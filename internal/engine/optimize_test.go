package engine_test

import (
	"bytes"
	"testing"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/intmath"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/quant"
	"torch2chip/internal/tensor"
)

// mkScaler builds a small MulQuant for hand-crafted programs.
func mkScaler(t testing.TB, channels int, outBits int, signed bool, zero int64) *intmath.MulQuant {
	t.Helper()
	scale := make([]float32, channels)
	bias := make([]float32, channels)
	for i := range scale {
		scale[i] = 0.011 + 0.003*float32(i)
		bias[i] = float32(i%5) - 2
	}
	mq, err := intmath.NewMulQuant(scale, bias, 4, 12, outBits, signed, zero)
	if err != nil {
		t.Fatal(err)
	}
	return mq
}

// randomCodes fills an IntTensor with codes in [-lim, lim].
func randomCodes(g *tensor.RNG, lim int, shape ...int) *tensor.IntTensor {
	x := tensor.NewInt(shape...)
	for i := range x.Data {
		x.Data[i] = int64(g.Intn(2*lim+1) - lim)
	}
	return x
}

// execCodes plans, binds, and runs a program on codes with the given
// registry.
func execCodes(t *testing.T, p *engine.Program, codes *tensor.IntTensor, reg *engine.Registry) *tensor.IntTensor {
	t.Helper()
	ex, err := engine.NewExecutor(p, codes.Shape, engine.WithKernels(reg))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.ExecuteCodes(codes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSameCodes compares two code tensors exactly.
func assertSameCodes(t *testing.T, got, want *tensor.IntTensor, label string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d codes, want %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: code[%d] = %d, want %d", label, i, got.Data[i], want.Data[i])
		}
	}
}

// convRescaleProgram builds input → conv → rescale → output by hand,
// over signed 8-bit input codes.
func convRescaleProgram(t *testing.T, g *tensor.RNG) *engine.Program {
	t.Helper()
	w := randomCodes(g, 20, 6, 3, 3, 3)
	p := &engine.Program{InQuant: quant.NewQBase(8, true, false), NumBufs: 3, Input: 0, Output: 2}
	p.Instrs = []engine.Instr{
		{
			Kind: engine.OpConv, Name: "layers.0", In: []int{0}, Out: 1,
			W: w, P: tensor.ConvParams{Stride: 1, Padding: 1}, InZero: 2,
			Scaler: mkScaler(t, 6, 8, false, 0), WBits: 8,
		},
		{
			Kind: engine.OpRescale, Name: "layers.1", In: []int{1}, Out: 2,
			Scaler: mkScaler(t, 1, 16, true, 0),
		},
	}
	return p
}

func TestFoldRescaleIntoConv(t *testing.T) {
	g := tensor.NewRNG(41)
	p := convRescaleProgram(t, g)
	q, st := engine.OptimizeStats(p, engine.OptFuse)
	if st.FoldedRescales != 1 || len(q.Instrs) != 1 {
		t.Fatalf("fold stats %+v, instrs %d", st, len(q.Instrs))
	}
	if q.Instrs[0].FusedRescale == nil || q.Instrs[0].Out != p.Output {
		t.Fatalf("conv did not absorb the rescale: %+v", q.Instrs[0])
	}
	// The original program is untouched.
	if len(p.Instrs) != 2 || p.Instrs[0].FusedRescale != nil {
		t.Fatal("Optimize mutated its input program")
	}
	codes := randomCodes(g, 120, 2, 3, 8, 8)
	want := execCodes(t, p, codes, engine.ReferenceKernels())
	for name, reg := range map[string]*engine.Registry{
		"fast": engine.FastKernels(), "reference": engine.ReferenceKernels(),
	} {
		assertSameCodes(t, execCodes(t, q, codes, reg), want, "fused/"+name)
	}
}

func TestFusedProgramZeroIntermediateBuffers(t *testing.T) {
	g := tensor.NewRNG(42)
	p := convRescaleProgram(t, g)
	q := engine.Optimize(p, engine.OptFuse)
	plan, err := q.PlanBuffers([]int{1, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Buffer 1 (the conv→rescale intermediate) is eliminated: the planner
	// must leave it unplaced, and only input+output bytes remain, at
	// their derived widths: i8 input codes, and the folded 16-bit
	// rescale's i16 output.
	if plan.Offsets[1] != -1 {
		t.Fatalf("eliminated buffer still placed at %d", plan.Offsets[1])
	}
	if plan.DTypes[0] != tensor.I8 || plan.DTypes[2] != tensor.I16 {
		t.Fatalf("input %s, output %s, want i8 and i16", plan.DTypes[0], plan.DTypes[2])
	}
	want := int64(tensor.Numel([]int{1, 3, 8, 8})*1 + tensor.Numel([]int{1, 6, 8, 8})*2)
	if plan.ArenaBytes != want {
		t.Fatalf("arena %d bytes, want input+output = %d", plan.ArenaBytes, want)
	}
	unfusedPlan, err := p.PlanBuffers([]int{1, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaBytes >= unfusedPlan.ArenaBytes {
		t.Fatalf("fused arena %d not smaller than unfused %d", plan.ArenaBytes, unfusedPlan.ArenaBytes)
	}
}

func TestPlannerSingleInstructionProgram(t *testing.T) {
	g := tensor.NewRNG(43)
	w := randomCodes(g, 20, 4, 3, 3, 3)
	p := &engine.Program{InQuant: quant.NewQBase(8, true, false), NumBufs: 2, Input: 0, Output: 1}
	p.Instrs = []engine.Instr{{
		Kind: engine.OpConv, Name: "layers.0", In: []int{0}, Out: 1,
		W: w, P: tensor.ConvParams{Stride: 1, Padding: 1},
		Scaler: mkScaler(t, 4, 8, true, 0), WBits: 8,
	}}
	for _, lvl := range []engine.OptLevel{engine.OptNone, engine.OptFuse} {
		q := engine.Optimize(p, lvl)
		plan, err := q.PlanBuffers([]int{2, 3, 8, 8})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Offsets[0] < 0 || plan.Offsets[1] < 0 {
			t.Fatalf("opt %d: unplaced buffers: %v", lvl, plan.Offsets)
		}
		// Input and output are live simultaneously; they must not overlap.
		in0, in1 := plan.Offsets[0], plan.Offsets[0]+tensor.Numel(plan.Shapes[0])
		o0, o1 := plan.Offsets[1], plan.Offsets[1]+tensor.Numel(plan.Shapes[1])
		if in0 < o1 && o0 < in1 {
			t.Fatalf("opt %d: input [%d,%d) overlaps output [%d,%d)", lvl, in0, in1, o0, o1)
		}
		codes := randomCodes(g, 100, 2, 3, 8, 8)
		want := execCodes(t, q, codes, engine.ReferenceKernels())
		assertSameCodes(t, execCodes(t, q, codes, engine.FastKernels()), want, "single-instr")
		assertSameCodes(t, execCodes(t, q, codes, engine.FastKernelsWithout(engine.CapTyped)), want, "single-instr/i64")
	}
}

func TestPlannerOutputAliasesLastFusedBuffer(t *testing.T) {
	// input → rescale(+fused add of input) → output: after fusion the
	// final instruction is elementwise over two dying inputs, so the
	// planner may write the program output in place over one of them.
	g := tensor.NewRNG(44)
	p := &engine.Program{InQuant: quant.NewQBase(8, true, false), NumBufs: 4, Input: 0, Output: 3}
	p.Instrs = []engine.Instr{
		{Kind: engine.OpRescale, Name: "r0", In: []int{0}, Out: 1, Scaler: mkScaler(t, 1, 16, true, 0)},
		{Kind: engine.OpRescale, Name: "r1", In: []int{0}, Out: 2, Scaler: mkScaler(t, 1, 16, true, 0)},
		{Kind: engine.OpAdd, Name: "add", In: []int{1, 2}, Out: 3, Shift: 4, ClampLo: -128, ClampHi: 127},
	}
	q, st := engine.OptimizeStats(p, engine.OptFuse)
	if st.FusedAdds != 1 || len(q.Instrs) != 2 {
		t.Fatalf("stats %+v, instrs %d", st, len(q.Instrs))
	}
	plan, err := q.PlanBuffers([]int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	last := q.Instrs[len(q.Instrs)-1]
	if !last.FusedAdd || last.Out != q.Output {
		t.Fatalf("last instr did not absorb the add: %+v", last)
	}
	aliased := false
	for _, b := range last.In {
		if plan.Offsets[q.Output] == plan.Offsets[b] {
			aliased = true
		}
	}
	if !aliased {
		t.Fatalf("output (offset %d) does not alias a dying fused input (offsets %v)",
			plan.Offsets[q.Output], plan.Offsets)
	}
	codes := randomCodes(g, 128, 2, 6)
	for i, v := range codes.Data {
		codes.Data[i] = min(v, 127)
	}
	want := execCodes(t, p, codes, engine.ReferenceKernels())
	assertSameCodes(t, execCodes(t, q, codes, engine.FastKernels()), want, "aliased-output")
	assertSameCodes(t, execCodes(t, q, codes, engine.FastKernelsWithout(engine.CapTyped)), want, "aliased-output-i64")
	assertSameCodes(t, execCodes(t, q, codes, engine.ReferenceKernels()), want, "aliased-output-ref")
}

// TestLinearFinishesInPlaceOverFusedAdd: a linear carrying a folded
// rescale and a folded residual add, whose output the planner places
// over its dying add operand, finishes each row straight into typed
// storage on the SWAR, int32-panel and int64-panel paths, and every
// code equals the reference registry's.
func TestLinearFinishesInPlaceOverFusedAdd(t *testing.T) {
	g := tensor.NewRNG(46)
	const rows, k = 37, 24
	p := &engine.Program{
		InQuant: quant.NewQBase(8, true, false),
		NumBufs: 3, Input: 0, Output: 2,
		InShape:  []int{k},
		OptLevel: engine.OptFuse,
	}
	p.Instrs = []engine.Instr{
		{Kind: engine.OpRescale, Name: "branch", In: []int{0}, Out: 1, Scaler: mkScaler(t, 1, 8, true, 0)},
		{
			Kind: engine.OpLinear, Name: "lin", In: []int{0, 1}, Out: 2,
			W: randomCodes(g, 90, k, k), InZero: 3, WBits: 8,
			Scaler:       mkScaler(t, k, 16, true, 0),
			FusedRescale: mkScaler(t, 1, 8, true, 0),
			FusedAdd:     true, Shift: 1, ClampLo: -128, ClampHi: 127,
		},
	}
	codes := randomCodes(g, 128, rows, k)
	for i, v := range codes.Data {
		codes.Data[i] = min(v, 127)
	}
	want := execCodes(t, p, codes, engine.ReferenceKernels())
	for _, tc := range []struct {
		path string
		reg  *engine.Registry
	}{
		{"swar", engine.FastKernels()},
		{"i32-panel", engine.FastKernelsWithout(engine.CapSwar)},
		{"i64-panel", engine.FastKernelsWithout(engine.CapTyped)},
	} {
		ex, err := engine.NewExecutor(p, codes.Shape, engine.WithKernels(tc.reg))
		if err != nil {
			t.Fatal(err)
		}
		if got := ex.KernelChoices()[0].Path; got != tc.path {
			t.Fatalf("linear bound %q, want %q", got, tc.path)
		}
		if off := ex.Plan().Offsets; off[2] != off[1] {
			t.Fatalf("%s: output at %d, not in place over the add operand at %d", tc.path, off[2], off[1])
		}
		got, err := ex.ExecuteCodes(codes, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCodes(t, got, want, tc.path)
	}
}

// TestGroupedConvParityStridePadding: grouped and depthwise convs over
// stride, padding, a 1×1 input and even and odd output widths bind the
// direct kernels — i32-direct under the fast registry, i64-direct
// without typed storage — and match the reference registry exactly.
func TestGroupedConvParityStridePadding(t *testing.T) {
	g := tensor.NewRNG(45)
	for _, tc := range []struct {
		name           string
		c, o, groups   int
		k, stride, pad int
		inZero         int64
		h, w           int
	}{
		{"depthwise/s1", 8, 8, 8, 3, 1, 1, 3, 11, 11},
		{"depthwise/s2", 8, 8, 8, 3, 2, 1, 3, 11, 11},
		{"grouped/s2", 8, 16, 4, 3, 2, 1, -2, 11, 11},
		{"grouped/s3-pad2", 6, 12, 2, 5, 3, 2, 7, 11, 11},
		{"depthwise/s2-nopad", 8, 8, 8, 3, 2, 0, 1, 11, 11},
		{"depthwise/s1-pad2", 8, 8, 8, 3, 1, 2, 5, 11, 11},
		{"depthwise/s2-pad2", 8, 8, 8, 3, 2, 2, -4, 11, 11},
		{"depthwise/1x1-input-pad1", 8, 8, 8, 3, 1, 1, 6, 1, 1},
		{"grouped/even-ow", 8, 8, 4, 3, 1, 1, 2, 7, 10},
		{"grouped/odd-ow", 8, 8, 4, 3, 1, 1, 2, 7, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := randomCodes(g, 30, tc.o, tc.c/tc.groups, tc.k, tc.k)
			p := &engine.Program{InQuant: quant.NewQBase(8, true, false), NumBufs: 2, Input: 0, Output: 1}
			p.Instrs = []engine.Instr{{
				Kind: engine.OpConv, Name: "layers.0", In: []int{0}, Out: 1,
				W: w, P: tensor.ConvParams{Stride: tc.stride, Padding: tc.pad, Groups: tc.groups},
				InZero: tc.inZero, Scaler: mkScaler(t, tc.o, 8, false, 0), WBits: 8,
			}}
			codes := randomCodes(g, 120, 2, tc.c, tc.h, tc.w)
			want := execCodes(t, p, codes, engine.ReferenceKernels())
			for _, rc := range []struct {
				name, path string
				reg        *engine.Registry
			}{
				{"fast", "i32-direct", engine.FastKernels()},
				{"fast-i64", "i64-direct", engine.FastKernelsWithout(engine.CapTyped)},
			} {
				ex, err := engine.NewExecutor(p, codes.Shape, engine.WithKernels(rc.reg))
				if err != nil {
					t.Fatal(err)
				}
				if got := ex.KernelChoices()[0].Path; got != rc.path {
					t.Fatalf("%s: conv bound %q, want %q", rc.name, got, rc.path)
				}
				got, err := ex.ExecuteCodes(codes, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertSameCodes(t, got, want, rc.name)
			}
		})
	}
}

func TestFusionStatsOnZoo(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	for _, tc := range []struct {
		name  string
		build func(g *tensor.RNG) nn.Layer
	}{
		{"resnet20", func(g *tensor.RNG) nn.Layer { return models.NewResNet(g, models.ResNet20(10)) }},
		{"mobilenet", func(g *tensor.RNG) nn.Layer {
			return models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tensor.NewRNG(8)
			model := tc.build(g)
			x, _ := calib.Batch([]int{0, 1, 2, 3})
			model.Forward(x)
			im, _ := compile(t, model, calib)
			prog, err := engine.Lower(im)
			if err != nil {
				t.Fatal(err)
			}
			fused, st := engine.OptimizeStats(prog, engine.OptFuse)
			if st.InstrsAfter >= st.InstrsBefore {
				t.Fatalf("fusion did not reduce instructions: %+v", st)
			}
			if st.BuffersAfter > st.BuffersBefore {
				t.Fatalf("fusion grew the buffer set: %+v", st)
			}
			up, err := prog.PlanBuffers([]int{8, 3, 32, 32})
			if err != nil {
				t.Fatal(err)
			}
			fp, err := fused.PlanBuffers([]int{8, 3, 32, 32})
			if err != nil {
				t.Fatal(err)
			}
			if fp.ArenaBytes > up.ArenaBytes {
				t.Fatalf("fused arena %d grew over unfused %d", fp.ArenaBytes, up.ArenaBytes)
			}
			if fp.NaiveBytes > up.NaiveBytes {
				t.Fatalf("fused buffer total %d grew over unfused %d", fp.NaiveBytes, up.NaiveBytes)
			}
			// The fused program stays the bit-exact artifact.
			xb := g.Uniform(0, 1, 2, 3, 32, 32)
			assertBitIdentical(t, im, fused, xb, engine.FastKernels())
			assertBitIdentical(t, im, fused, xb, engine.ReferenceKernels())
		})
	}
}

func TestSerializeRoundTripsOptLevel(t *testing.T) {
	g := tensor.NewRNG(46)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := models.NewResNet(g, models.ResNet20(10))
	x, _ := calib.Batch([]int{0, 1})
	model.Forward(x)
	im, prog := compile(t, model, calib) // core.Compile applies OptFuse
	if prog.OptLevel != engine.OptFuse {
		t.Fatalf("compiled program opt level %d, want %d", prog.OptLevel, engine.OptFuse)
	}

	ck := export.NewCheckpoint(im.IntTensors(), nil)
	ck.Program = prog.Spec()
	if ck.Program.Version != engine.ProgramSpecVersion {
		t.Fatalf("spec version %d, want %d", ck.Program.Version, engine.ProgramSpecVersion)
	}
	var buf bytes.Buffer
	if err := ck.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := export.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := engine.FromCheckpoint(ck2)
	if err != nil {
		t.Fatal(err)
	}
	if prog2.OptLevel != engine.OptFuse {
		t.Fatalf("reloaded opt level %d, want %d", prog2.OptLevel, engine.OptFuse)
	}
	if len(prog2.Instrs) != len(prog.Instrs) {
		t.Fatalf("reloaded %d instrs, want %d (fused folds lost)", len(prog2.Instrs), len(prog.Instrs))
	}
	// A checkpoint saved from a fused program must reload bit-identical.
	xb := g.Uniform(0, 1, 2, 3, 32, 32)
	assertBitIdentical(t, im, prog2, xb, engine.FastKernels())
}
