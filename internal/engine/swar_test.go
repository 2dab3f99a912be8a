package engine_test

// Black-box SWAR and multicore tests: kernel-path selection (including
// the overflow fallback) via KernelChoices, bit-parity across
// parallelism settings on the zoo, a branched residual and the
// transformer, and a scaling sanity check on multicore runners.

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/nn"
	"torch2chip/internal/tensor"
)

// TestSwarKernelSelectionOnZoo asserts the storage pass binds the SWAR
// path wherever it is legal on the zoo: at batch 1 and 8, every dense
// (ungrouped) conv or linear of resnet20, mobilenet and the ViT whose
// input is stored in 8 bits binds "swar", so a change to the legality
// rule cannot silently drop one to the int32 panel; grouped/depthwise
// convs (excluded from lane packing) stay on the direct int32 path; and
// the no-SWAR registry binds none.
func TestSwarKernelSelectionOnZoo(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, resnet := compileZoo(t, "resnet20", calib)
	_, mobilenet := compileZoo(t, "mobilenet", calib)
	_, vit := compileViT(t, 3, 1)
	for _, m := range []struct {
		name string
		prog *engine.Program
	}{{"resnet20", resnet}, {"mobilenet", mobilenet}, {"vit", vit}} {
		for _, n := range []int{1, 8} {
			ex, err := engine.NewExecutor(m.prog, []int{n, 3, 32, 32}, engine.WithKernels(engine.FastKernels()))
			if err != nil {
				t.Fatal(err)
			}
			var swar, direct int
			for _, c := range ex.KernelChoices() {
				grouped := c.Kind == engine.OpConv && m.prog.Instrs[c.Index].P.Groups > 1
				eightBit := c.InDTypes[0] == "i8" || c.InDTypes[0] == "u8"
				if (c.Kind == engine.OpConv || c.Kind == engine.OpLinear) && !grouped && eightBit && c.Path != "swar" {
					t.Fatalf("%s b%d %s: dense %s over %s input bound %s, want swar", m.name, n, c.Name, c.Kind, c.InDTypes[0], c.Path)
				}
				switch c.Path {
				case "swar":
					swar++
					if c.Lanes != 2 {
						t.Fatalf("%s b%d %s: swar lanes %d, want 2", m.name, n, c.Name, c.Lanes)
					}
					if c.TileM <= 0 {
						t.Fatalf("%s b%d %s: swar tile %d", m.name, n, c.Name, c.TileM)
					}
				case "i32-direct":
					direct++
				}
			}
			if swar == 0 {
				t.Fatalf("%s b%d bound no SWAR instruction", m.name, n)
			}
			if m.name == "mobilenet" && direct == 0 {
				t.Fatal("mobilenet depthwise convs must stay on the direct int32 fallback")
			}
			exNo, err := engine.NewExecutor(m.prog, []int{n, 3, 32, 32}, engine.WithKernels(engine.FastKernelsWithout(engine.CapSwar)))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range exNo.KernelChoices() {
				if c.Path == "swar" {
					t.Fatalf("%s b%d no-swar registry bound a SWAR kernel at %s", m.name, n, c.Name)
				}
			}
		}
	}
}

// TestZooBindsFoldedRounding: on resnet20, mobilenet and the ViT at
// batch 1 and 8, every conv, linear and matmul binds the folded
// rounding — the bind proves |a·sfx + c| + |hz| < 2⁶² for the int32
// accumulators of the fast registry with and without SWAR, and for any
// fused rescale stage — so a change to the proof cannot silently drop the
// zoo back to Requantize. Without typed storage every state accumulates
// in int64 over arenas that accept any code, which has no bound to
// prove, so none folds.
func TestZooBindsFoldedRounding(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, resnet := compileZoo(t, "resnet20", calib)
	_, mobilenet := compileZoo(t, "mobilenet", calib)
	_, vit := compileViT(t, 3, 1)
	for _, m := range []struct {
		name string
		prog *engine.Program
	}{{"resnet20", resnet}, {"mobilenet", mobilenet}, {"vit", vit}} {
		for _, reg := range []struct {
			name   string
			r      *engine.Registry
			folded bool
		}{
			{"fast", engine.FastKernels(), true},
			{"no-swar", engine.FastKernelsWithout(engine.CapSwar), true},
			{"i64", engine.FastKernelsWithout(engine.CapTyped), false},
		} {
			for _, n := range []int{1, 8} {
				ex, err := engine.NewExecutor(m.prog, []int{n, 3, 32, 32}, engine.WithKernels(reg.r))
				if err != nil {
					t.Fatal(err)
				}
				rows := ex.KernelChoices()
				if len(rows) == 0 {
					t.Fatalf("%s: no conv/linear/matmul", m.name)
				}
				for i, f := range ex.FoldedRounding() {
					if f != reg.folded {
						t.Fatalf("%s %s b%d %s (%s, %s): folded rounding %v, want %v",
							m.name, reg.name, n, rows[i].Name, rows[i].Kind, rows[i].Path, f, reg.folded)
					}
				}
			}
		}
	}
}

// TestExplainInt32IsAccumulatorWidth: the record's Int32 column is the
// accumulator width of the bound state — true exactly on the SWAR, int32
// and int32-matmul paths, false on int64 and reference rows — on the zoo
// and the ViT under every registry.
func TestExplainInt32IsAccumulatorWidth(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	progs := map[string]*engine.Program{}
	_, progs["resnet20"] = compileZoo(t, "resnet20", calib)
	_, progs["mobilenet"] = compileZoo(t, "mobilenet", calib)
	_, progs["vit"] = compileViT(t, 3, 1)
	regs := map[string]*engine.Registry{
		"fast":      engine.FastKernels(),
		"no-swar":   engine.FastKernelsWithout(engine.CapSwar),
		"no-sparse": engine.FastKernelsWithout(engine.CapSparse),
		"no-typed":  engine.FastKernelsWithout(engine.CapTyped),
		"reference": engine.ReferenceKernels(),
	}
	for name, prog := range progs {
		for rname, reg := range regs {
			ex, err := engine.NewExecutor(prog, []int{2, 3, 32, 32}, engine.WithKernels(reg))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ex.Explain() {
				want := strings.HasPrefix(r.Path, "swar") || strings.HasPrefix(r.Path, "i32-") || r.Path == "matmul-i32"
				if r.Int32 != want {
					t.Fatalf("%s under %s: %s row %s path %q has int32 %v, want %v",
						name, rname, r.Kind, r.Name, r.Path, r.Int32, want)
				}
			}
		}
	}
}

// TestEngineParityAcrossParallelism: the engine's codes are bit-identical
// whatever the parallelism — across the process-wide cap and across the
// per-executor WithMaxParallel bound.
func TestEngineParityAcrossParallelism(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	progs := map[string]*engine.Program{}
	_, progs["resnet20"] = compileZoo(t, "resnet20", calib)
	_, progs["vit"] = compileViT(t, 3, 1)
	g := tensor.NewRNG(23)
	x := g.Uniform(0, 1, 4, 3, 32, 32)
	for name, prog := range progs {
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
						t.Fatalf("%s maxPar=%d width=%d diverges at %d", name, maxPar, width, i)
					}
				}
			}
		}
	}
}

// branchyCNN has a residual block whose shortcut carries its own conv —
// the two branch convs are independent IR nodes whose outputs are
// simultaneously live at the join, so (unfused) the planner must place
// them disjointly.
func branchyCNN(g *tensor.RNG) nn.Layer {
	model := nn.NewSequential(
		nn.NewConv2d(g, 3, 8, 3, 1, 1, 1, false),
		nn.NewBatchNorm2d(8),
		&nn.ReLU{},
		nn.NewResidual(
			nn.NewSequential(
				nn.NewConv2d(g, 8, 8, 3, 1, 1, 1, false),
				nn.NewBatchNorm2d(8),
				&nn.ReLU{},
			),
			nn.NewConv2d(g, 8, 8, 1, 1, 0, 1, false),
		),
		&nn.AvgPool{Kernel: 0},
		&nn.Flatten{},
		nn.NewLinear(g, 8, 10, true),
	)
	for i := 0; i < 4; i++ {
		model.Forward(g.Uniform(0, 1, 4, 3, 8, 8))
	}
	return model
}

// TestBranchedResidualParity: on the branched program, unfused (the two
// branch convs are independent and both live at the join) and fused
// (add-fusion consumes the body output inside the shortcut conv), an
// executor at WithMaxParallel 1 and 4 must be bit-identical to the
// interpreter. Batch 1 on a 4×4 input keeps every conv grid to at most
// two site tiles, the smallest jobs intra-op splitting produces.
func TestBranchedResidualParity(t *testing.T) {
	g := tensor.NewRNG(5)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	im, fused := compile(t, branchyCNN(g), calib)
	unfused, err := engine.Lower(im)
	if err != nil {
		t.Fatal(err)
	}
	x := g.Uniform(0, 1, 1, 3, 4, 4)
	want := im.Forward(x)
	for _, tc := range []struct {
		name string
		prog *engine.Program
	}{
		{"unfused", unfused},
		{"fused", fused},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, maxPar := range []int{1, 4} {
				ex, err := engine.NewExecutor(tc.prog, x.Shape,
					engine.WithKernels(engine.FastKernels()), engine.WithMaxParallel(maxPar))
				if err != nil {
					t.Fatal(err)
				}
				y, err := ex.Execute(x)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Data {
					if y.Data[i] != want.Data[i] {
						t.Fatalf("%s maxPar=%d diverges from the interpreter at %d", tc.name, maxPar, i)
					}
				}
			}
		})
	}
}

// TestEngineScalingSanity: on a ≥4-core runner, resnet20 at parallelism
// 4 must be at least 1.5x faster than at parallelism 1. Skipped on
// narrower machines (CI's bench-smoke job runs it where it can).
func TestEngineScalingSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 cores, have %d", runtime.NumCPU())
	}
	if tensor.InitParallel() < 4 {
		t.Skipf("worker pool frozen at %d lanes", tensor.InitParallel())
	}
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZoo(t, "resnet20", calib)
	ex, err := engine.NewExecutor(prog, []int{8, 3, 32, 32}, engine.WithKernels(engine.FastKernels()))
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(3)
	x := g.Uniform(0, 1, 8, 3, 32, 32)
	best := func(width int) time.Duration {
		old := tensor.SetParallelism(width)
		defer tensor.SetParallelism(old)
		if _, err := ex.Execute(x); err != nil { // warm
			t.Fatal(err)
		}
		b := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := ex.Execute(x); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < b {
				b = el
			}
		}
		return b
	}
	t1 := best(1)
	t4 := best(4)
	ratio := float64(t1) / float64(t4)
	t.Logf("resnet20 batch-8: width1 %v, width4 %v, speedup %.2fx", t1, t4, ratio)
	if ratio < 1.5 {
		t.Fatalf("parallelism 4 speedup %.2fx < 1.5x over parallelism 1", ratio)
	}
}
