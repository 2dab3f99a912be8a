package engine_test

// Typed-storage tests: the narrow-precision engine must stay bit-exact
// with the IntModel interpreter across every registry, opt level, and
// dtype mix; the planner's byte accounting must show the narrow arenas
// actually shrinking; and odd-width models must bind the int64 kernels
// over narrow storage without losing exactness.

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/fuse"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/tensor"
)

// resnet20ArenaBudgetBytes is the committed ceiling for the resnet20
// fused typed plan at batch 8. The PR-3 I64 baseline was 1,572,864 B;
// typed storage plans ≤ this budget (measured 295,424 B), and CI's
// bench-smoke job fails if a dtype-widening regression pushes the plan
// back over it.
const resnet20ArenaBudgetBytes = 320_000

// compileZoo builds, calibrates, and compiles a zoo model.
func compileZoo(t testing.TB, name string, calib *data.Dataset) (*core.Compiled, *engine.Program) {
	t.Helper()
	g := tensor.NewRNG(7)
	var model nn.Layer
	switch name {
	case "resnet20":
		model = models.NewResNet(g, models.ResNet20(10))
	case "mobilenet":
		model = models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
	default:
		t.Fatalf("unknown zoo model %q", name)
	}
	x, _ := calib.Batch([]int{0, 1, 2, 3})
	model.Forward(x)
	t2c := core.New(model, core.DefaultConfig())
	t2c.Prepare()
	if err := t2c.Calibrate(calib.Subset(8), 4); err != nil {
		t.Fatal(err)
	}
	nn.SetTraining(model, false)
	cm, err := t2c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cm, cm.Prog
}

// TestTypedZooParityAcrossRegistriesAndOptLevels asserts bit-identity of
// the typed-storage engine against IntModel.Forward for every kernel
// registry at both opt levels — the dtype mixes differ per model
// (mobilenet is rescale-free, resnet carries I16 residual-fine codes and
// U16 pooled codes), so together the zoo exercises every narrow path.
func TestTypedZooParityAcrossRegistriesAndOptLevels(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	for _, name := range []string{"resnet20", "mobilenet"} {
		t.Run(name, func(t *testing.T) {
			cm, fused := compileZoo(t, name, calib)
			unfused, err := engine.Lower(cm.Int)
			if err != nil {
				t.Fatal(err)
			}
			g := tensor.NewRNG(17)
			regs := []namedReg{
				{"fast-typed", engine.FastKernels()},
				{"fast-noswar", engine.FastKernelsWithout(engine.CapSwar)},
				{"fast-i64", engine.FastKernelsWithout(engine.CapTyped)},
				{"fast-noprep", statelessPrepKernels()},
				{"reference", engine.ReferenceKernels()},
			}
			for _, prog := range []*engine.Program{unfused, fused} {
				for _, batch := range []int{1, 3} {
					want := wantOf(cm.Int, g.Uniform(0, 1, batch, 3, 32, 32))
					for _, rc := range regs {
						t.Run(rc.name, func(t *testing.T) {
							if rc.name == "fast-i64" {
								assertInt64Bound(t, prog, want.x.Shape, rc.reg)
							}
							compareBitIdentical(t, want, prog, rc.reg)
						})
					}
				}
			}
		})
	}
}

// TestTypedStorageNarrowsArena is the I8-vs-I64 planner regression: the
// same fused program planned typed must be at least 4x smaller than the
// I64 plan on resnet20, and must actually place narrow arenas.
func TestTypedStorageNarrowsArena(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZoo(t, "resnet20", calib)
	typed, err := prog.PlanBuffers([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := prog.PlanBuffersI64([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("typed plan: %s", typed)
	t.Logf("wide plan:  %s", wide)
	if typed.ArenaElems[tensor.I8]+typed.ArenaElems[tensor.U8] == 0 {
		t.Fatalf("typed plan placed no 8-bit arena: %s", typed)
	}
	if wide.ArenaElems[tensor.I64] == 0 || wide.ArenaBytes != int64(wide.ArenaElems[tensor.I64])*8 {
		t.Fatalf("I64 plan not pure I64: %s", wide)
	}
	if typed.ArenaBytes*4 > wide.ArenaBytes {
		t.Fatalf("typed arena %d B is not ≥4x smaller than I64 arena %d B", typed.ArenaBytes, wide.ArenaBytes)
	}
}

// TestResNet20ArenaBudget fails when the fused typed plan exceeds the
// committed byte budget — the CI tripwire against silent dtype widening.
func TestResNet20ArenaBudget(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZoo(t, "resnet20", calib)
	plan, err := prog.PlanBuffers([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("resnet20 batch-8 typed plan: %s", plan)
	if plan.ArenaBytes > resnet20ArenaBudgetBytes {
		t.Fatalf("resnet20 batch-8 arena %d B exceeds committed budget %d B",
			plan.ArenaBytes, resnet20ArenaBudgetBytes)
	}
}

// TestFirstBindAllocatesUnderBudget: binding a freshly compiled resnet20
// program at batch 8 — its first NewExecutor, which builds the shared
// weight panels as well as the arenas and slot buffers — allocates under
// 1 MiB. Conv addresses come from the geometry, so binding builds no
// per-shape index map (those alone were 732 KiB here). GOMAXPROCS is 1
// during the bind so TotalAlloc counts little besides it.
func TestFirstBindAllocatesUnderBudget(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZoo(t, "resnet20", calib)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := engine.NewExecutor(prog, []int{8, 3, 32, 32}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("resnet20 first bind at batch 8: %d KiB", got>>10)
	if got >= 1<<20 {
		t.Fatalf("first bind allocated %d KiB, want under 1 MiB", got>>10)
	}
}

// reloadProgram serializes a program (with im's tensor table) through
// JSON and reconstructs it, optionally rewriting the spec first.
func reloadProgram(t *testing.T, tensors map[string]*tensor.IntTensor, spec *export.ProgramSpec) (*engine.Program, error) {
	t.Helper()
	ck, err := export.ReadJSON(bytes.NewReader(checkpointJSON(t, tensors, spec)))
	if err != nil {
		t.Fatal(err)
	}
	return engine.FromCheckpoint(ck)
}

// TestSpecVersionMigration: a checkpoint at every spec version 1–4
// loads into the program it was written from. The v4 and v3 specs carry
// storage dtypes, the v2 spec (fused) and the v1 spec (unfused) carry
// none, and each reload derives its storage from the program, so its
// plan has the fresh program's dtypes and arena bytes (the unfused
// program's for v1), its fingerprint equals the fresh program's, and
// its codes equal the interpreter's, which runs once. A stored dtype
// too narrow for the derived code range is rejected.
func TestSpecVersionMigration(t *testing.T) {
	g := tensor.NewRNG(61)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	im, fused := compile(t, smallCNN(g), calib)
	unfused, err := engine.Lower(im)
	if err != nil {
		t.Fatal(err)
	}
	inShape := []int{2, 3, 8, 8}
	want := wantOf(im, g.Uniform(0, 1, inShape...))
	for v := 1; v <= engine.ProgramSpecVersion; v++ {
		fresh := fused
		if v == 1 {
			fresh = unfused
		}
		spec := fresh.Spec()
		if len(spec.BufDTypes) != fresh.NumBufs {
			t.Fatalf("spec has %d dtypes for %d buffers", len(spec.BufDTypes), fresh.NumBufs)
		}
		spec.Version = v
		if v < 3 {
			spec.BufDTypes = nil
		}
		p, err := reloadProgram(t, im.IntTensors(), spec)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		wantPlan, err := fresh.PlanBuffers(inShape)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.PlanBuffers(inShape)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if !slices.Equal(got.DTypes, wantPlan.DTypes) || got.ArenaBytes != wantPlan.ArenaBytes {
			t.Fatalf("v%d plans %v in %d B, fresh program %v in %d B",
				v, got.DTypes, got.ArenaBytes, wantPlan.DTypes, wantPlan.ArenaBytes)
		}
		if p.Fingerprint() != fresh.Fingerprint() {
			t.Fatalf("v%d fingerprint %016x, fresh program %016x", v, p.Fingerprint(), fresh.Fingerprint())
		}
		compareBitIdentical(t, want, p, engine.FastKernels())
	}

	bad := fused.Spec()
	for i := range bad.BufDTypes {
		bad.BufDTypes[i] = "i8" // the 12-bit logit output cannot fit i8
	}
	if _, err := reloadProgram(t, im.IntTensors(), bad); err == nil {
		t.Fatal("expected narrow-dtype validation error")
	} else if !strings.Contains(err.Error(), "cannot hold") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestExecuteCodesRejectsOutOfRangeInput: the typed engine must refuse
// raw input codes outside the planned narrow storage range instead of
// silently wrapping them on the narrowing store.
func TestExecuteCodesRejectsOutOfRangeInput(t *testing.T) {
	g := tensor.NewRNG(71)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	im, prog := compile(t, smallCNN(g), calib)
	ex, err := engine.NewExecutor(prog, []int{1, 3, 8, 8}, engine.WithKernels(engine.FastKernels()))
	if err != nil {
		t.Fatal(err)
	}
	codes := im.InQuant.Quantize(g.Uniform(0, 1, 1, 3, 8, 8))
	if _, err := ex.ExecuteCodes(codes, nil); err != nil {
		t.Fatalf("in-range codes rejected: %v", err)
	}
	codes.Data[0] = 1 << 20
	if _, err := ex.ExecuteCodes(codes, nil); err == nil {
		t.Fatal("expected out-of-range input code to be rejected")
	}
}

// compileOddWidth compiles smallCNN with 12-bit weights, too wide for
// int8, so its conv/linear instructions bind the int64 drivers over
// narrow storage.
func compileOddWidth(t *testing.T) (*fuse.IntModel, *engine.Program) {
	t.Helper()
	g := tensor.NewRNG(51)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	cfg := core.DefaultConfig()
	cfg.Quant.WBits = 12
	t2c := core.New(model, cfg)
	t2c.Prepare()
	if err := t2c.Calibrate(calib.Subset(8), 4); err != nil {
		t.Fatal(err)
	}
	nn.SetTraining(model, false)
	cm, err := t2c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cm.Int, cm.Prog
}

// TestOddWidthModelBindsInt64Kernels compiles a model with 12-bit
// weights — too wide for the int32-accumulating kernels — and asserts
// that those instructions bind the int64 kernels over the program's
// narrow storage (no buffer is widened for them), bit-identically at
// every batch size and parallelism bound.
func TestOddWidthModelBindsInt64Kernels(t *testing.T) {
	im, prog := compileOddWidth(t)
	g := tensor.NewRNG(52)
	// 12-bit weights really are too wide for int8.
	wideW := map[int]bool{}
	for i, it := range prog.Instrs {
		if it.W == nil {
			continue
		}
		if mn, mx := it.W.MinMax(); mn < -128 || mx > 127 {
			wideW[i] = true
		}
	}
	if len(wideW) == 0 {
		t.Fatal("12-bit quantizer produced int8-range weights; the int64 kernels are not exercised")
	}
	for _, batch := range []int{1, 3, 8} {
		xb := g.Uniform(0, 1, batch, 3, 8, 8)
		i64Plan, err := prog.PlanBuffersI64(xb.Shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxPar := range []int{1, 4} {
			opt := engine.WithMaxParallel(maxPar)
			ex, err := engine.NewExecutor(prog, xb.Shape, engine.WithKernels(engine.FastKernels()), opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ex.KernelChoices() {
				if wideW[c.Index] && c.Path != "i64-panel" && c.Path != "i64-direct" {
					t.Fatalf("%s with 12-bit weights bound %q, want an i64 path", c.Name, c.Path)
				}
			}
			plan := ex.Plan()
			narrow := 0
			for d := tensor.DType(0); d < tensor.NumDTypes; d++ {
				if d != tensor.I64 {
					narrow += plan.ArenaElems[d]
				}
			}
			if narrow == 0 || plan.ArenaBytes >= i64Plan.ArenaBytes {
				t.Fatalf("odd-width plan %s is not narrower than the I64 plan's %d B", plan, i64Plan.ArenaBytes)
			}
			assertBitIdentical(t, im, prog, xb, engine.FastKernels(), opt)
		}
	}
}
