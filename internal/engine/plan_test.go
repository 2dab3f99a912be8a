package engine_test

// Placement regression test: the planner packs buffers by program-order
// liveness, and its placement is pinned to committed digests.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/tensor"
)

// planDigest hashes every buffer's storage dtype and arena offset, so
// any change to placement or to the storage dtypes changes it.
func planDigest(pl *engine.Plan) string {
	h := sha256.New()
	for b := range pl.Offsets {
		fmt.Fprintf(h, "%d %s %d\n", b, pl.DTypes[b], pl.Offsets[b])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPlanIsProgramOrderPlacement pins the fast-kernel plan of the fused
// resnet20 and depth-2 ViT at batch 8 and of the branched residual
// (fused and unfused) at batch 1 to committed offsets, dtypes and arena
// lengths. The digests were captured from the planner that scheduled
// cross-instruction waves, run with every wave disabled (a minimum wave
// work of 1<<60 ns), i.e. from its program-order plan: dropping waves
// must not move a single buffer, and any later planner change that
// does fails here. Both entry points — NewExecutor and PlanBuffers —
// must produce it.
func TestPlanIsProgramOrderPlacement(t *testing.T) {
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
	for _, tc := range []struct {
		name   string
		shape  []int
		digest string
		elems  [tensor.NumDTypes]int
		bytes  int64
	}{
		{"resnet20", []int{8, 3, 32, 32}, "4a930260aa3fae3b", [tensor.NumDTypes]int{0, 0, 131072, 65536, 16640, 0}, 295424},
		{"vit", []int{8, 3, 32, 32}, "191693dae5ccaf78", [tensor.NumDTypes]int{0, 66560, 135200, 151840, 0, 0}, 505440},
		{"branchy-fused", []int{1, 3, 4, 4}, "0f2b6a6ae3f079f4", [tensor.NumDTypes]int{0, 0, 176, 128, 136, 0}, 704},
		{"branchy-unfused", []int{1, 3, 4, 4}, "2bffee2fa7c3bb70", [tensor.NumDTypes]int{0, 0, 176, 256, 136, 0}, 960},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := progs[tc.name]
			ex, err := engine.NewExecutor(prog, tc.shape, engine.WithKernels(engine.FastKernels()))
			if err != nil {
				t.Fatal(err)
			}
			planned, err := prog.PlanBuffers(tc.shape)
			if err != nil {
				t.Fatal(err)
			}
			for via, pl := range map[string]*engine.Plan{"NewExecutor": ex.Plan(), "PlanBuffers": planned} {
				if got := planDigest(pl); got != tc.digest {
					t.Errorf("%s via %s: placement digest %s, want %s", tc.name, via, got, tc.digest)
				}
				if pl.ArenaElems != tc.elems || pl.ArenaBytes != tc.bytes {
					t.Errorf("%s via %s: arenas %v (%d B), want %v (%d B)",
						tc.name, via, pl.ArenaElems, pl.ArenaBytes, tc.elems, tc.bytes)
				}
			}
		})
	}
}
