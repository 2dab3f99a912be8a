package engine_test

// Integer-transformer engine tests: ViT compiled through the graph IR
// must match the IntModel interpreter bit for bit across every kernel
// registry and optimization level, round-trip through ProgramSpec v4,
// reject corrupt lookup tables, and stay within calibration tolerance
// of the float model.

import (
	"math"
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

// compileViT builds, calibrates, and compiles a small ViT (32×32 input,
// depth-2 by default to keep the suite fast).
func compileViT(t testing.TB, seed int64, depth int) (*core.Compiled, *engine.Program) {
	t.Helper()
	g := tensor.NewRNG(seed)
	cfg := models.ViT7(32, 10)
	cfg.Depth = depth
	model := models.NewViT(g, cfg)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
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
	cm.Prog.InShape = []int{3, 32, 32}
	return cm, cm.Prog
}

// TestViTZooParity is the transformer entry of the zoo-parity suite:
// engine output bit-identical to fuse.IntModel.Forward for every kernel
// registry at both optimization levels and multiple batch sizes.
func TestViTZooParity(t *testing.T) {
	cm, fused := compileViT(t, 3, 2)
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
	for _, pc := range []struct {
		name string
		prog *engine.Program
	}{{"unfused", unfused}, {"fused", fused}} {
		for _, batch := range []int{1, 3} {
			want := wantOf(cm.Int, g.Uniform(0, 1, batch, 3, 32, 32))
			for _, rc := range regs {
				t.Run(pc.name+"/"+rc.name, func(t *testing.T) {
					if rc.name == "fast-i64" {
						assertInt64Bound(t, pc.prog, want.x.Shape, rc.reg)
					}
					compareBitIdentical(t, want, pc.prog, rc.reg)
				})
			}
		}
	}
}

// TestViTTracksFloatThroughEngine: the compiled engine's logits stay
// within calibration tolerance of the FP32 model (bounded by a small
// multiple of the fake-quant model's own distance from FP32).
func TestViTTracksFloatThroughEngine(t *testing.T) {
	g := tensor.NewRNG(3)
	cfg := models.ViT7(32, 10)
	cfg.Depth = 2
	raw := models.NewViT(g, cfg)
	nn.SetTraining(raw, false)

	cm, prog := compileViT(t, 3, 2)
	x := tensor.NewRNG(77).Uniform(0, 1, 4, 3, 32, 32)
	ex, err := engine.NewExecutor(prog, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	yEng, err := ex.Execute(x)
	if err != nil {
		t.Fatal(err)
	}
	yRaw := raw.Forward(x)
	yInt := cm.Int.Forward(x)

	var floorErr, engErr float64
	for i := range yRaw.Data {
		floorErr += math.Abs(float64(yRaw.Data[i] - yInt.Data[i]))
		engErr += math.Abs(float64(yRaw.Data[i] - yEng.Data[i]))
	}
	floorErr /= float64(len(yRaw.Data))
	engErr /= float64(len(yRaw.Data))
	t.Logf("mean |int-raw| = %.4f, mean |engine-raw| = %.4f", floorErr, engErr)
	// The engine is bit-identical to the interpreter, so its float
	// tracking must be exactly the interpreter's.
	for i := range yInt.Data {
		if yInt.Data[i] != yEng.Data[i] {
			t.Fatalf("engine logit %d = %v, interpreter %v", i, yEng.Data[i], yInt.Data[i])
		}
	}
}

// TestViTSpecV4RoundTrip: a compiled ViT checkpoint round-trips through
// JSON — same plan, bit-identical execution — and records version 4.
func TestViTSpecV4RoundTrip(t *testing.T) {
	cm, prog := compileViT(t, 21, 1)
	spec := prog.Spec()
	if spec.Version != engine.ProgramSpecVersion || engine.ProgramSpecVersion < 4 {
		t.Fatalf("spec version %d, want %d ≥ 4", spec.Version, engine.ProgramSpecVersion)
	}
	hasTables := false
	for _, is := range spec.Instrs {
		if is.Softmax != nil || is.Gelu != nil {
			hasTables = true
		}
	}
	if !hasTables {
		t.Fatal("serialized ViT program carries no lookup tables")
	}
	p2, err := reloadProgram(t, cm.Int.IntTensors(), spec)
	if err != nil {
		t.Fatal(err)
	}
	inShape := []int{2, 3, 32, 32}
	want, err := prog.PlanBuffers(inShape)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.PlanBuffers(inShape)
	if err != nil {
		t.Fatal(err)
	}
	if got.ArenaBytes != want.ArenaBytes {
		t.Fatalf("reloaded plan %d B, original %d B", got.ArenaBytes, want.ArenaBytes)
	}
	xb := tensor.NewRNG(22).Uniform(0, 1, 2, 3, 32, 32)
	assertBitIdentical(t, cm.Int, p2, xb, engine.FastKernels())
}

// TestViTSpecRejectsCorruptTables mirrors the corrupt-dtype tests for
// the v4 lookup tables: entries outside the declared range, truncated
// tables, and malformed softmax domains must all fail to load.
func TestViTSpecRejectsCorruptTables(t *testing.T) {
	cm, prog := compileViT(t, 23, 1)
	tensors := cm.Int.IntTensors()

	corrupt := func(t *testing.T, mutate func(*export.ProgramSpec) bool, wantSub string) {
		t.Helper()
		spec := prog.Spec()
		if !mutate(spec) {
			t.Fatal("corruption target not found in spec")
		}
		if _, err := reloadProgram(t, tensors, spec); err == nil {
			t.Fatal("corrupt spec loaded without error")
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("unexpected error: %v", err)
		}
	}

	t.Run("gelu-entry-out-of-range", func(t *testing.T) {
		corrupt(t, func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Gelu != nil {
					s.Instrs[i].Gelu.Table[0] = s.Instrs[i].ClampHi + 1000
					return true
				}
			}
			return false
		}, "outside declared range")
	})
	t.Run("gelu-empty-table", func(t *testing.T) {
		corrupt(t, func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Gelu != nil {
					s.Instrs[i].Gelu.Table = nil
					return true
				}
			}
			return false
		}, "empty lookup table")
	})
	t.Run("softmax-domain-shifted", func(t *testing.T) {
		corrupt(t, func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Softmax != nil {
					s.Instrs[i].Softmax.ExpInMin++
					return true
				}
			}
			return false
		}, "does not end at 0")
	})
	t.Run("softmax-entry-overflow", func(t *testing.T) {
		corrupt(t, func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Softmax != nil {
					s.Instrs[i].Softmax.ExpTable[0] = 1 << 20
					return true
				}
			}
			return false
		}, "UQ1.15")
	})
	t.Run("layernorm-bad-constants", func(t *testing.T) {
		corrupt(t, func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Kind == string(engine.OpLayerNorm) {
					s.Instrs[i].LNK = 0
					return true
				}
			}
			return false
		}, "invalid constants")
	})
	t.Run("split-heads-zero", func(t *testing.T) {
		corrupt(t, func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Kind == string(engine.OpSplitHeads) {
					s.Instrs[i].Heads = 0
					return true
				}
			}
			return false
		}, "heads")
	})
}

// TestViTArenaUsesNarrowAttentionMaps: the [T,T] attention probability
// buffers — the largest tensors in the program — must be planned as
// single-byte storage, and the plan must beat the I64 plan by ≥4x.
func TestViTArenaUsesNarrowAttentionMaps(t *testing.T) {
	_, prog := compileViT(t, 31, 2)
	typed, err := prog.PlanBuffers([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := prog.PlanBuffersI64([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("vit typed plan: %s", typed)
	if typed.ArenaElems[tensor.U8] == 0 {
		t.Fatalf("attention probabilities not planned as U8: %s", typed)
	}
	if typed.ArenaBytes*4 > wide.ArenaBytes {
		t.Fatalf("typed arena %d B is not ≥4x smaller than I64 arena %d B", typed.ArenaBytes, wide.ArenaBytes)
	}
}

// TestViTMaxParallelParity: the fused depth-2 ViT executor at
// WithMaxParallel 1 and 4 must be bit-identical to the interpreter
// under both fast registries — the typed one with SWAR projections and
// the one without.
func TestViTMaxParallelParity(t *testing.T) {
	cm, prog := compileViT(t, 3, 2)
	g := tensor.NewRNG(19)
	x := g.Uniform(0, 1, 8, 3, 32, 32)
	want := cm.Int.Forward(x)
	for rname, reg := range map[string]*engine.Registry{
		"fast-typed":  engine.FastKernels(),
		"fast-noswar": engine.FastKernelsWithout(engine.CapSwar),
	} {
		t.Run(rname, func(t *testing.T) {
			for _, maxPar := range []int{1, 4} {
				ex, err := engine.NewExecutor(prog, x.Shape, engine.WithKernels(reg), engine.WithMaxParallel(maxPar))
				if err != nil {
					t.Fatal(err)
				}
				y, err := ex.Execute(x)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Data {
					if y.Data[i] != want.Data[i] {
						t.Fatalf("%s maxPar=%d diverges from the interpreter at %d", rname, maxPar, i)
					}
				}
			}
		})
	}
}

// vitArenaBudgetBytes is the committed ceiling for the depth-2 ViT
// fused typed plan at batch 8 (measured 505,440 B: I8 projections/probs
// operands, U8 attention maps, I16 block boundaries). CI's bench-smoke
// fails if a dtype-widening regression pushes the plan over it.
const vitArenaBudgetBytes = 560_000

// TestViTArenaBudget is the transformer counterpart of
// TestResNet20ArenaBudget: the fused typed plan must stay inside the
// committed byte budget.
func TestViTArenaBudget(t *testing.T) {
	_, prog := compileViT(t, 31, 2)
	plan, err := prog.PlanBuffers([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("vit batch-8 typed plan: %s", plan)
	if plan.ArenaBytes > vitArenaBudgetBytes {
		t.Fatalf("vit batch-8 arena %d B exceeds committed budget %d B",
			plan.ArenaBytes, vitArenaBudgetBytes)
	}
}

// TestViTServesThroughEngineServer: the compiled ViT runs through the
// batched serving runtime bit-identically to the interpreter.
func TestViTServesThroughEngineServer(t *testing.T) {
	cm, prog := compileViT(t, 41, 1)
	srv, err := engine.NewServer(prog, []int{3, 32, 32}, engine.ServerOptions{Workers: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g := tensor.NewRNG(42)
	for i := 0; i < 6; i++ {
		x := g.Uniform(0, 1, 1, 3, 32, 32)
		y, err := srv.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		want := cm.Int.Forward(x)
		for j := range want.Data {
			if y.Data[j] != want.Data[j] {
				t.Fatalf("served logit %d = %v, interpreter %v", j, y.Data[j], want.Data[j])
			}
		}
	}
}

// TestViTInstrsPerKind sanity-checks the lowered instruction mix: every
// transformer op kind must appear, and the count of attention matmuls
// must be two per block.
func TestViTInstrsPerKind(t *testing.T) {
	_, prog := compileViT(t, 51, 2)
	counts := map[engine.OpKind]int{}
	for _, it := range prog.Instrs {
		counts[it.Kind]++
	}
	for _, kind := range []engine.OpKind{
		engine.OpConv, engine.OpEmbed, engine.OpLayerNorm, engine.OpLinear,
		engine.OpMatMul, engine.OpSoftmax, engine.OpGelu,
		engine.OpSplitHeads, engine.OpMergeHeads, engine.OpSliceCls,
	} {
		if counts[kind] == 0 {
			t.Fatalf("lowered ViT program has no %q instruction: %v", kind, counts)
		}
	}
	if counts[engine.OpMatMul] != 2*2 {
		t.Fatalf("expected 4 attention matmuls for depth 2, got %d", counts[engine.OpMatMul])
	}
	if counts[engine.OpSoftmax] != 2 {
		t.Fatalf("expected 2 softmax instructions for depth 2, got %d", counts[engine.OpSoftmax])
	}
}

var _ = fuse.LNFracBits // keep the fuse import for documentation linkage

// TestSpecRejectsCorruptScalers: scaler payloads that would panic or
// silently mis-compute in the kernels (empty tables, mismatched
// scale/bias lengths, wrong channel counts, broken fixed-point splits)
// must be rejected at load time.
func TestSpecRejectsCorruptScalers(t *testing.T) {
	cm, prog := compileViT(t, 25, 1)
	tensors := cm.Int.IntTensors()
	cases := []struct {
		name   string
		mutate func(*export.ProgramSpec) bool
		want   string
	}{
		{"matmul-per-channel", func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Kind == string(engine.OpMatMul) {
					s.Instrs[i].Scaler.ScaleFx = append(s.Instrs[i].Scaler.ScaleFx, 1)
					s.Instrs[i].Scaler.BiasFx = append(s.Instrs[i].Scaler.BiasFx, 0)
					return true
				}
			}
			return false
		}, "channels"},
		{"layernorm-empty-scaler", func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Kind == string(engine.OpLayerNorm) {
					s.Instrs[i].Scaler.ScaleFx = nil
					s.Instrs[i].Scaler.BiasFx = nil
					return true
				}
			}
			return false
		}, "scales"},
		{"linear-bias-mismatch", func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Kind == string(engine.OpLinear) {
					s.Instrs[i].Scaler.BiasFx = s.Instrs[i].Scaler.BiasFx[:1]
					return true
				}
			}
			return false
		}, "biases"},
		{"bad-fixed-point-split", func(s *export.ProgramSpec) bool {
			for i := range s.Instrs {
				if s.Instrs[i].Scaler != nil {
					s.Instrs[i].Scaler.FracBits = 0
					return true
				}
			}
			return false
		}, "INT16 split"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := prog.Spec()
			if !tc.mutate(spec) {
				t.Fatal("corruption target not found in spec")
			}
			if _, err := reloadProgram(t, tensors, spec); err == nil {
				t.Fatal("corrupt scaler loaded without error")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}
