package engine_test

// Black-box sparsity tests: pruned zoo models must stay bit-identical to
// the interpreter across every registry and opt level (the sparse
// kernels change iteration order only over exact-zero terms), the
// sparsity-aware registry must actually bind the sparse paths with the
// expected skip fractions, and the modeled effective MACs must shrink
// accordingly.

import (
	"testing"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/prune"
	"torch2chip/internal/tensor"
)

// compileZooPruned is compileZoo with a one-shot pruning pass (magnitude
// to target sparsity, or 2:4 N:M when nm is set) applied to the float
// weights before quantization — the cmd/t2c -prune-sparsity/-prune-nm
// flow.
func compileZooPruned(t testing.TB, name string, calib *data.Dataset, target float64, nm bool) (*core.Compiled, *engine.Program) {
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
	params := prune.PrunableParams(model)
	if nm {
		pr, err := prune.NewNM(params, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		pr.Step(1)
	} else {
		prune.NewMagnitude(params, target).Step(1)
	}
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
	// The compile callers (cmd/t2c, the repository benchmark) stamp the
	// single-sample input shape; SparsityStats needs it for the modeled
	// skip fraction.
	cm.Prog.InShape = []int{3, 32, 32}
	return cm, cm.Prog
}

// TestSparseZooParityAcrossRegistriesAndOptLevels: magnitude-pruned and
// N:M-pruned zoo models must be bit-identical to the interpreter on
// every registry (sparse-aware fast, forced no-SWAR, forced dense,
// forced I64, stateless-prep fallback, reference) at both opt levels
// and multiple batch sizes.
func TestSparseZooParityAcrossRegistriesAndOptLevels(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	variants := []struct {
		name   string
		target float64
		nm     bool
	}{
		{"mag70", 0.7, false},
		{"nm24", 0, true},
	}
	regs := []namedReg{
		{"fast-sparse", engine.FastKernels()},
		{"fast-noswar", engine.FastKernelsWithout(engine.CapSwar)},
		{"fast-dense", engine.FastKernelsWithout(engine.CapSparse)},
		{"fast-i64", engine.FastKernelsWithout(engine.CapTyped)},
		{"fast-noprep", statelessPrepKernels()},
		{"reference", engine.ReferenceKernels()},
	}
	for _, model := range []string{"resnet20", "mobilenet"} {
		for _, v := range variants {
			t.Run(model+"/"+v.name, func(t *testing.T) {
				cm, fused := compileZooPruned(t, model, calib, v.target, v.nm)
				unfused, err := engine.Lower(cm.Int)
				if err != nil {
					t.Fatal(err)
				}
				if ws, _ := fused.SparsityStats(); ws < 0.4 {
					t.Fatalf("pruned %s/%s weight sparsity %.2f — pruning did not survive export", model, v.name, ws)
				}
				g := tensor.NewRNG(17)
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
}

// TestSparseKernelSelectionAndSkipFraction is the skip-fraction
// regression: at 70% magnitude sparsity the sparse-aware registry must
// bind sparse paths covering most GEMM instructions, the largest bound
// skip fraction must clear 0.35 (pair-granular skipping at 70% row
// sparsity skips ≈ s² ≈ 49% of MACs), and the modeled effective MACs
// must drop below 70% of dense. The dense-baseline registry must report
// zero skip.
func TestSparseKernelSelectionAndSkipFraction(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZooPruned(t, "resnet20", calib, 0.7, false)
	ex, err := engine.NewExecutor(prog, []int{8, 3, 32, 32}, engine.WithKernels(engine.FastKernels()))
	if err != nil {
		t.Fatal(err)
	}
	var sparse, denseBound int
	var maxSkip float64
	for _, c := range ex.KernelChoices() {
		switch c.Path {
		case "swar-sparse", "i32-sparse", "i32-nm":
			sparse++
			if c.SkipFrac <= 0 || c.SkipFrac >= 1 {
				t.Fatalf("%s bound %s with skip fraction %.3f", c.Name, c.Path, c.SkipFrac)
			}
			if c.SkipFrac > maxSkip {
				maxSkip = c.SkipFrac
			}
		case "swar", "i32-panel":
			denseBound++
			if c.SkipFrac != 0 {
				t.Fatalf("dense-bound %s reports skip fraction %.3f", c.Name, c.SkipFrac)
			}
		}
	}
	t.Logf("resnet20 mag70: %d sparse-bound, %d dense-bound, max skip %.3f", sparse, denseBound, maxSkip)
	if sparse == 0 {
		t.Fatal("70-percent-pruned resnet20 bound no sparse kernel")
	}
	if maxSkip < 0.35 {
		t.Fatalf("max bound skip fraction %.3f < 0.35 at 70%% sparsity", maxSkip)
	}
	dense, eff, err := prog.ModeledMacs([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if eff <= 0 || dense <= 0 || float64(eff) > 0.7*float64(dense) {
		t.Fatalf("modeled MACs dense=%d effective=%d: effective not < 70%% of dense", dense, eff)
	}
	ws, sf := prog.SparsityStats()
	if ws < 0.6 || sf <= 0 {
		t.Fatalf("SparsityStats = (%.3f, %.3f), want weight sparsity ≥ 0.6 and positive skip", ws, sf)
	}

	exDense, err := engine.NewExecutor(prog, []int{8, 3, 32, 32}, engine.WithKernels(engine.FastKernelsWithout(engine.CapSparse)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range exDense.KernelChoices() {
		switch c.Path {
		case "swar-sparse", "i32-sparse", "i32-nm":
			t.Fatalf("dense-baseline registry bound sparse path %s at %s", c.Path, c.Name)
		}
	}
}

// TestNMSelectionOnPrunedZoo: a 2:4-pruned model must bind the N:M
// microkernel on GEMM-shaped weights (K divisible by 4) with the exact
// 0.5 skip fraction, and report the structure in its record. The
// int32-panel registry is where the pack holds a clear cost margin
// (2/4 · 20 = 10 units/MAC vs the 21-unit dense panel); under the full
// SWAR registry it only ties the dual-lane dense kernel (10/MAC) and
// wins on the tie-break, so this test pins the unambiguous regime.
func TestNMSelectionOnPrunedZoo(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZooPruned(t, "resnet20", calib, 0, true)
	ex, err := engine.NewExecutor(prog, []int{4, 3, 32, 32}, engine.WithKernels(engine.FastKernelsWithout(engine.CapSwar)))
	if err != nil {
		t.Fatal(err)
	}
	nmBound, nmReported := 0, 0
	for _, c := range ex.KernelChoices() {
		if c.Path == "i32-nm" {
			nmBound++
			if c.SkipFrac != 0.5 {
				t.Fatalf("%s: N:M skip fraction %.3f, want exactly 0.5", c.Name, c.SkipFrac)
			}
		}
		if c.NM != "" {
			nmReported++
			if c.NM != "2:4" && c.NM != "1:4" {
				t.Fatalf("%s: N:M reported %s, want 2:4 or 1:4", c.Name, c.NM)
			}
		}
	}
	if nmBound == 0 {
		t.Fatal("2:4-pruned resnet20 bound no N:M kernel")
	}
	// Detection is a superset of binding: a row group holding fewer
	// than n nonzeros gives the unpadded CSR form fewer executed MACs
	// than the zero-padded pack, and the plan correctly keeps CSR there.
	if nmReported < nmBound {
		t.Fatalf("the record detects N:M on %d instructions, executor bound %d", nmReported, nmBound)
	}
	// The 2:4 structure must also show in the program-level model: a
	// positive skip fraction and effective MACs below dense.
	dense, eff, err := prog.ModeledMacs([]int{4, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if eff <= 0 || eff >= dense {
		t.Fatalf("2:4 modeled MACs dense=%d effective=%d: effective not below dense", dense, eff)
	}
	if _, sf := prog.SparsityStats(); sf <= 0 {
		t.Fatalf("2:4 SparsityStats skip fraction %.3f, want > 0", sf)
	}
}

// TestSparseParityAcrossParallelism: the sparse-bound kernels must stay
// bit-identical across worker counts and per-executor parallel bounds.
func TestSparseParityAcrossParallelism(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZooPruned(t, "resnet20", calib, 0.7, false)
	g := tensor.NewRNG(23)
	x := g.Uniform(0, 1, 4, 3, 32, 32)
	var ref *tensor.Tensor
	for _, maxPar := range []int{1, 2, 0} {
		ex, err := engine.NewExecutor(prog, x.Shape,
			engine.WithKernels(engine.FastKernels()), engine.WithMaxParallel(maxPar))
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 4} {
			old := tensor.SetParallelism(width)
			y, err := ex.Execute(x)
			tensor.SetParallelism(old)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = y
				continue
			}
			for i := range ref.Data {
				if y.Data[i] != ref.Data[i] {
					t.Fatalf("maxPar=%d width=%d diverges at %d", maxPar, width, i)
				}
			}
		}
	}
}

// benchPruned compiles a magnitude-pruned resnet20 for the
// sparse-vs-dense benchmarks.
func benchPruned(b *testing.B, sparsity float64) *engine.Program {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZooPruned(b, "resnet20", calib, sparsity, false)
	return prog
}

func benchEngine(b *testing.B, prog *engine.Program, reg *engine.Registry) {
	ex, err := engine.NewExecutor(prog, []int{8, 3, 32, 32}, engine.WithKernels(reg))
	if err != nil {
		b.Fatal(err)
	}
	g := tensor.NewRNG(3)
	x := g.Uniform(0, 1, 8, 3, 32, 32)
	old := tensor.SetParallelism(1)
	defer tensor.SetParallelism(old)
	if _, err := ex.Execute(x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResNet20Mag70Sparse(b *testing.B) {
	benchEngine(b, benchPruned(b, 0.7), engine.FastKernels())
}
func BenchmarkResNet20Mag70Dense(b *testing.B) {
	benchEngine(b, benchPruned(b, 0.7), engine.FastKernelsWithout(engine.CapSparse))
}
func BenchmarkResNet20Mag85Sparse(b *testing.B) {
	benchEngine(b, benchPruned(b, 0.85), engine.FastKernels())
}
func BenchmarkResNet20Mag85Dense(b *testing.B) {
	benchEngine(b, benchPruned(b, 0.85), engine.FastKernelsWithout(engine.CapSparse))
}
