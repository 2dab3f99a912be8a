package engine_test

// The conv/linear driver oracle: small random conv → linear models,
// dense and pruned three ways, run at every batch size on one executor
// under each fast-registry variant and compared bit for bit with the
// reference kernels. The random shapes put channel counts off the panel
// width, site tiles with ragged tails and border-heavy geometries in
// front of every GEMM core the drivers bind.

import (
	"fmt"
	"strings"
	"testing"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/nn"
	"torch2chip/internal/prune"
	"torch2chip/internal/tensor"
)

// oracleWidths are channel counts and linear widths that are not
// multiples of the panel width 4.
var oracleWidths = []int{3, 5, 6, 7, 9, 10, 11, 13}

// randomConvLinear builds conv(k, stride 1–2, pad 0–2) → BN → ReLU →
// conv → BN → ReLU → flatten → linear over 3×size×size inputs, with BN
// statistics from a few training-mode forwards.
func randomConvLinear(g *tensor.RNG, size int) (nn.Layer, string) {
	pick := func() int { return oracleWidths[g.Intn(len(oracleWidths))] }
	c1, c2, o := pick(), pick(), pick()
	out := func(n, k, s, p int) int { return (n+2*p-k)/s + 1 }
	k1, s1, p1 := 1+g.Intn(3), 1+g.Intn(2), g.Intn(3)
	k2, s2, p2 := 1+g.Intn(3), 1+g.Intn(2), g.Intn(3)
	for out(size, k1, s1, p1)+2*p2 < k2 {
		p2++
	}
	oh := out(out(size, k1, s1, p1), k2, s2, p2)
	model := nn.NewSequential(
		nn.NewConv2d(g, 3, c1, k1, s1, p1, 1, false),
		nn.NewBatchNorm2d(c1),
		&nn.ReLU{},
		nn.NewConv2d(g, c1, c2, k2, s2, p2, 1, false),
		nn.NewBatchNorm2d(c2),
		&nn.ReLU{},
		&nn.Flatten{},
		nn.NewLinear(g, c2*oh*oh, o, true),
	)
	for i := 0; i < 4; i++ {
		model.Forward(g.Uniform(0, 1, 4, 3, size, size))
	}
	desc := fmt.Sprintf("3x%d²→%d(k%d s%d p%d)→%d(k%d s%d p%d)→%d", size, c1, k1, s1, p1, c2, k2, s2, p2, o)
	return model, desc
}

// pruneColumns zeroes the same ⌈frac·K⌉ reduction positions in every
// output channel of each conv/linear weight — the structure whose pair
// live lists are as short as its channel lists, which binds the
// pair-skipping SWAR core.
func pruneColumns(g *tensor.RNG, model nn.Layer, frac float64) {
	for _, p := range prune.PrunableParams(model) {
		o := p.Data.Shape[0]
		k := len(p.Data.Data) / o
		dead := g.Perm(k)[:int(frac*float64(k)+0.999)]
		for oc := 0; oc < o; oc++ {
			for _, j := range dead {
				p.Data.Data[oc*k+j] = 0
			}
		}
	}
}

// TestConvLinearDriverOracle checks the conv/linear drivers against the
// reference kernels on random models: dense, magnitude-pruned to 70 %,
// 2:4-pruned and column-pruned to 60 %, each run at every n ≤ 4 on one
// executor bound at 4 under the fast registry and with SWAR, sparsity or
// typed storage cleared. The bound paths together must cover every core.
func TestConvLinearDriverOracle(t *testing.T) {
	regs := []struct {
		name string
		reg  *engine.Registry
	}{
		{"fast", engine.FastKernels()},
		{"no-swar", engine.FastKernelsWithout(engine.CapSwar)},
		{"no-sparse", engine.FastKernelsWithout(engine.CapSparse)},
		{"no-typed", engine.FastKernelsWithout(engine.CapTyped)},
	}
	const bound = 4
	seen := map[string]int{}
	g := tensor.NewRNG(4949)
	for _, variant := range []string{"dense", "mag70", "nm24", "col60"} {
		for trial := 0; trial < 3; trial++ {
			size := 5 + g.Intn(6)
			model, desc := randomConvLinear(g, size)
			switch variant {
			case "mag70":
				prune.NewMagnitude(prune.PrunableParams(model), 0.7).Step(1)
			case "nm24":
				pr, err := prune.NewNM(prune.PrunableParams(model), 2, 4)
				if err != nil {
					t.Fatal(err)
				}
				pr.Step(1)
			case "col60":
				pruneColumns(g, model, 0.6)
			}
			spec := data.SynthCIFAR10
			spec.Size = size
			calib, _ := data.Generate(spec, 16, 8)
			im, prog := compile(t, model, calib)
			shape := []int{bound, 3, size, size}
			ref, err := engine.NewExecutor(prog, shape, engine.WithKernels(engine.ReferenceKernels()))
			if err != nil {
				t.Fatal(err)
			}
			xs := make([]*tensor.IntTensor, bound+1)
			want := make([]*tensor.IntTensor, bound+1)
			for n := 1; n <= bound; n++ {
				xs[n] = im.InQuant.Quantize(g.Uniform(-0.5, 1.5, n, 3, size, size))
				if want[n], err = ref.ExecuteCodes(xs[n], nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, rc := range regs {
				label := fmt.Sprintf("%s #%d %s under %s", variant, trial, desc, rc.name)
				ex, err := engine.NewExecutor(prog, shape, engine.WithKernels(rc.reg))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var paths []string
				for _, c := range ex.KernelChoices() {
					seen[c.Path]++
					paths = append(paths, c.Path)
				}
				for n := 1; n <= bound; n++ {
					got, err := ex.ExecuteCodes(xs[n], nil)
					if err != nil {
						t.Fatalf("%s n=%d: %v", label, n, err)
					}
					for i, v := range want[n].Data {
						if got.Data[i] != v {
							t.Fatalf("%s n=%d (paths %s): code[%d] = %d, reference %d",
								label, n, strings.Join(paths, ","), i, got.Data[i], v)
						}
					}
				}
			}
		}
	}
	t.Logf("bound paths: %v", seen)
	for _, p := range []string{"swar", "swar-sparse", "i32-panel", "i32-sparse", "i32-nm", "i64-panel"} {
		if seen[p] == 0 {
			t.Errorf("no instruction bound %s (bound: %v)", p, seen)
		}
	}
}
