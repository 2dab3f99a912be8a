package engine_test

// Parallelism-aware placement tests: the planner must group the fused
// ViT q/k/v projections into dependency-layer waves with disjoint arena
// placement, the executor must actually run those waves concurrently
// and bit-identically, and the arena-growth budget gate must hold on
// every program at every configuration — including the zero-growth
// config, where the plan must fall back to exactly the serial bytes.

import (
	"testing"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/tensor"
)

// qkvWaves returns the parallel waves of a plan whose members are all
// linear instructions (the q/k/v projection waves on a transformer).
func qkvWaves(prog *engine.Program, pl *engine.Plan) [][]int {
	var out [][]int
	for _, w := range pl.Schedule {
		if !w.Parallel || len(w.Members) < 2 {
			continue
		}
		allLin := true
		for _, m := range w.Members {
			if prog.Instrs[m].Kind != engine.OpLinear {
				allLin = false
			}
		}
		if allLin {
			out = append(out, w.Members)
		}
	}
	return out
}

// TestViTQKVWavePlacement: on the fused depth-2 ViT, the planner must
// form one three-linear wave per block (the q/k/v projections — PR 6's
// consecutive-window greedy could never group them because splits sit
// between the linears in program order), keep the three outputs in
// disjoint arena regions, and stay inside the arena-growth budget.
func TestViTQKVWavePlacement(t *testing.T) {
	_, prog := compileViT(t, 3, 2)
	pl, err := prog.PlanBuffers([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	waves := qkvWaves(prog, pl)
	if len(waves) < 2 {
		t.Fatalf("expected a q/k/v wave per block (2), got %d (schedule %v)", len(waves), pl.Schedule)
	}
	for _, members := range waves {
		if len(members) != 3 {
			t.Fatalf("q/k/v wave has %d members, want 3", len(members))
		}
		type reg struct{ lo, hi int }
		var regs []reg
		var dt tensor.DType
		for i, m := range members {
			out := prog.Instrs[m].Out
			if i == 0 {
				dt = pl.DTypes[out]
			} else if pl.DTypes[out] != dt {
				t.Fatalf("wave outputs mix dtypes %s and %s", dt, pl.DTypes[out])
			}
			off := pl.Offsets[out]
			regs = append(regs, reg{off, off + tensor.Numel(pl.Shapes[out])})
		}
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].lo < regs[j].hi && regs[j].lo < regs[i].hi {
					t.Fatalf("wave outputs overlap: [%d,%d) and [%d,%d)",
						regs[i].lo, regs[i].hi, regs[j].lo, regs[j].hi)
				}
			}
		}
	}
	if pl.ParallelWaves < 2 {
		t.Fatalf("ParallelWaves = %d, want ≥ 2", pl.ParallelWaves)
	}
	if pl.ParallelFrac <= 0 || pl.ParallelFrac >= 1 {
		t.Fatalf("ParallelFrac = %v, want in (0, 1)", pl.ParallelFrac)
	}
	if pl.CritPathBytes <= 0 {
		t.Fatalf("CritPathBytes = %d, want > 0", pl.CritPathBytes)
	}
	growth := engine.DefaultPlanConfig().ArenaGrowth
	if budget := pl.SerialBytes + int64(growth*float64(pl.SerialBytes)); pl.ArenaBytes > budget {
		t.Fatalf("arena %d B exceeds serial %d B + %.0f%% budget", pl.ArenaBytes, pl.SerialBytes, growth*100)
	}
	t.Logf("vit plan: %s (serial %d B, crit-path %d B)", pl, pl.SerialBytes, pl.CritPathBytes)
}

// TestViTQKVWaveExecutes: the fused ViT executor must actually engage
// the q/k/v waves at pool width ≥ 2 — this is the program PR 6's
// scheduler always serialized — and produce codes bit-identical to a
// width-1 executor across the registries that bind wave-capable states.
func TestViTQKVWaveExecutes(t *testing.T) {
	cm, prog := compileViT(t, 3, 2)
	if tensor.InitParallel() < 2 {
		t.Skipf("worker pool frozen at %d lanes", tensor.InitParallel())
	}
	g := tensor.NewRNG(19)
	x := g.Uniform(0, 1, 8, 3, 32, 32)
	want := cm.Int.Forward(x)
	for rname, reg := range map[string]*engine.Registry{
		"fast-typed":  engine.FastKernels(),
		"fast-noswar": engine.FastKernelsWithout(engine.CapSwar),
	} {
		t.Run(rname, func(t *testing.T) {
			ex, err := engine.NewExecutor(prog, x.Shape, engine.WithKernels(reg))
			if err != nil {
				t.Fatal(err)
			}
			widest := 0
			for _, n := range ex.WaveSummary() {
				if n > widest {
					widest = n
				}
			}
			if widest < 2 {
				t.Fatalf("fused ViT bound no multi-instruction wave: %v", ex.WaveSummary())
			}
			y, err := ex.Execute(x)
			if err != nil {
				t.Fatal(err)
			}
			if ex.WaveParallelRuns() < 2 {
				t.Fatalf("q/k/v waves engaged %d times, want ≥ 2 (pool width %d)",
					ex.WaveParallelRuns(), tensor.Parallelism())
			}
			for i := range want.Data {
				if y.Data[i] != want.Data[i] {
					t.Fatalf("wave-parallel output diverges from interpreter at %d", i)
				}
			}
		})
	}
}

// TestPlanBudgetGateHonored: for every zoo program and a sweep of
// ArenaGrowth settings the planned arena must respect
// serial × (1 + growth); at growth 0 it must be exactly the serial
// plan's bytes (waves are only kept when disjoint placement is free),
// and an impossible MinWaveNs must restore the serial plan verbatim.
func TestPlanBudgetGateHonored(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	progs := map[string]*engine.Program{}
	_, progs["resnet20"] = compileZoo(t, "resnet20", calib)
	_, progs["vit"] = compileViT(t, 3, 2)
	im, fused := compile(t, branchyCNN(tensor.NewRNG(5)), calib)
	progs["branchy-fused"] = fused
	unfused, err := engine.Lower(im)
	if err != nil {
		t.Fatal(err)
	}
	progs["branchy-unfused"] = unfused
	shape := map[string][]int{"branchy-fused": {1, 3, 4, 4}, "branchy-unfused": {1, 3, 4, 4}}
	for name, prog := range progs {
		sh := shape[name]
		if sh == nil {
			sh = []int{8, 3, 32, 32}
		}
		for _, growth := range []float64{0, 0.05, 0.25, 1} {
			ex, err := engine.NewExecutor(prog, sh,
				engine.WithKernels(engine.FastKernels()),
				engine.WithPlanConfig(engine.PlanConfig{ArenaGrowth: growth, MinWaveNs: 2000}))
			if err != nil {
				t.Fatal(err)
			}
			pl := ex.Plan()
			budget := pl.SerialBytes + int64(growth*float64(pl.SerialBytes))
			if pl.ArenaBytes > budget {
				t.Fatalf("%s growth=%v: arena %d B over budget %d B (serial %d B)",
					name, growth, pl.ArenaBytes, budget, pl.SerialBytes)
			}
			if growth == 0 && pl.ArenaBytes != pl.SerialBytes {
				t.Fatalf("%s growth=0: arena %d B ≠ serial %d B", name, pl.ArenaBytes, pl.SerialBytes)
			}
		}
		// An unreachable work floor demotes every candidate: the plan must
		// collapse to the serial schedule, one singleton per instruction.
		ex, err := engine.NewExecutor(prog, sh,
			engine.WithKernels(engine.FastKernels()),
			engine.WithPlanConfig(engine.PlanConfig{MinWaveNs: 1 << 60}))
		if err != nil {
			t.Fatal(err)
		}
		pl := ex.Plan()
		if pl.ParallelWaves != 0 || len(pl.Schedule) != len(prog.Instrs) {
			t.Fatalf("%s MinWaveNs=max: %d parallel waves, %d steps (want 0, %d)",
				name, pl.ParallelWaves, len(pl.Schedule), len(prog.Instrs))
		}
		if pl.ArenaBytes != pl.SerialBytes {
			t.Fatalf("%s serial fallback: arena %d B ≠ serial %d B", name, pl.ArenaBytes, pl.SerialBytes)
		}
		if ex.WaveParallelRuns() != 0 {
			t.Fatalf("%s: serial-plan executor ran a wave", name)
		}
	}
}

// TestSerialScheduleMatchesPR6Plan: with no parallel waves the schedule
// degenerates to program order, so the wave-aware planner must
// reproduce the serial plan bit for bit — same offsets, same arenas —
// as PlanBuffersI64 does for the I64 layout (placement is pure
// address arithmetic; this pins the refactor's no-op case).
func TestSerialScheduleMatchesPR6Plan(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	_, prog := compileZoo(t, "resnet20", calib)
	pl, err := prog.PlanBuffers([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	// resnet20's fused program has no independent GEMM pair (every
	// residual joins through a fused add), so the wave-aware plan IS the
	// serial plan.
	if pl.ParallelWaves != 0 {
		t.Fatalf("fused resnet20 formed %d parallel waves", pl.ParallelWaves)
	}
	if pl.ArenaBytes != pl.SerialBytes {
		t.Fatalf("arena %d B ≠ serial %d B on a wave-free program", pl.ArenaBytes, pl.SerialBytes)
	}
	if len(pl.Schedule) != len(prog.Instrs) {
		t.Fatalf("wave-free schedule has %d steps, want %d", len(pl.Schedule), len(prog.Instrs))
	}
}
