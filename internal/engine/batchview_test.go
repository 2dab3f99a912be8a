package engine_test

// One executor, any batch: an executor bound at batch 8 must run every
// batch of n ≤ 8 samples on prefix views of its arenas, bit-identical to
// the interpreter, with the tile a bind at batch n would choose, and
// without allocating once n has run.

import (
	"slices"
	"strings"
	"testing"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/fuse"
	"torch2chip/internal/tensor"
)

const viewBound = 8

// viewOrder runs the bound batch first, then every smaller n, so each
// smaller view runs over arenas a larger batch has just filled; the
// last two rerun cached views on fresh inputs.
var viewOrder = []int{8, 1, 2, 3, 4, 5, 6, 7, 1, 7}

// assertAnyBatchParity binds prog once at viewBound under reg and runs it
// at every n in viewOrder, each time on fresh inputs, at
// WithMaxParallel 1 and 4. Codes and
// logits must equal IntModel's, each GEMM tile must equal the one a bind
// at batch n picks, and some instruction must bind a path with prefix
// wantPath, so the row exercises the kernel it names.
func assertAnyBatchParity(t *testing.T, im *fuse.IntModel, prog *engine.Program, sample []int, reg *engine.Registry, wantPath string) {
	t.Helper()
	type ref struct {
		x     *tensor.Tensor
		codes *tensor.IntTensor
		want  *tensor.IntTensor
	}
	g := tensor.NewRNG(29)
	var refs []ref
	for _, n := range viewOrder {
		x := g.Uniform(0, 1, append([]int{n}, sample...)...)
		refs = append(refs, ref{x: x, codes: im.InQuant.Quantize(x), want: im.ForwardCodes(x)})
	}
	for _, maxPar := range []int{1, 4} {
		opts := []engine.ExecOption{engine.WithKernels(reg), engine.WithMaxParallel(maxPar)}
		ex, err := engine.NewExecutor(prog, append([]int{viewBound}, sample...), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(ex.KernelChoices(), func(c engine.KernelChoice) bool {
			return strings.HasPrefix(c.Path, wantPath)
		}) {
			t.Fatalf("no instruction bound a %q path", wantPath)
		}
		for _, r := range refs {
			n := r.x.Shape[0]
			got, err := ex.ExecuteCodes(r.codes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Shape, r.want.Shape) || !slices.Equal(got.Data, r.want.Data) {
				t.Fatalf("maxPar %d n=%d: codes %v diverge from the interpreter's %v", maxPar, n, got.Shape, r.want.Shape)
			}
			logits, err := ex.Execute(r.x)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range r.want.Data {
				// IntModel.Forward's dequantization of its output codes.
				if want := float32(c-im.OutZero) * im.OutScale; logits.Data[i] != want {
					t.Fatalf("maxPar %d n=%d: logit[%d] = %v, interpreter %v", maxPar, n, i, logits.Data[i], want)
				}
			}
		}
		for n := 1; n <= viewBound; n++ {
			exN, err := engine.NewExecutor(prog, append([]int{n}, sample...), opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, 0, len(exN.KernelChoices()))
			for _, c := range exN.KernelChoices() {
				want = append(want, c.TileM)
			}
			if got := ex.TilesAt(n); !slices.Equal(got, want) {
				t.Fatalf("maxPar %d n=%d: tiles %v, a batch-%d bind picks %v", maxPar, n, got, n, want)
			}
		}
	}
}

// TestOneExecutorAnyBatchParity covers the zoo, the ViT (its matmuls on
// the int32 GEMM over typed arenas, and on the int64 GEMM over the
// I64-planned arenas of a registry without typed storage), an odd-width
// program that binds the int64 drivers, and pruned programs that bind
// the channel-CSR and N:M kernels.
func TestOneExecutorAnyBatchParity(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	cifar := []int{3, 32, 32}
	t.Run("resnet20", func(t *testing.T) {
		cm, prog := compileZoo(t, "resnet20", calib)
		assertAnyBatchParity(t, cm.Int, prog, cifar, engine.FastKernels(), "swar")
	})
	t.Run("mobilenet", func(t *testing.T) {
		cm, prog := compileZoo(t, "mobilenet", calib)
		assertAnyBatchParity(t, cm.Int, prog, cifar, engine.FastKernels(), "i32-direct")
	})
	t.Run("vit", func(t *testing.T) {
		cm, prog := compileViT(t, 3, 2)
		assertAnyBatchParity(t, cm.Int, prog, cifar, engine.FastKernels(), "matmul-i32")
	})
	t.Run("vit-i64", func(t *testing.T) {
		cm, prog := compileViT(t, 3, 2)
		assertAnyBatchParity(t, cm.Int, prog, cifar, engine.FastKernelsWithout(engine.CapTyped), "matmul-i64")
	})
	t.Run("odd-width", func(t *testing.T) {
		im, prog := compileOddWidth(t)
		assertAnyBatchParity(t, im, prog, []int{3, 8, 8}, engine.FastKernels(), "i64-")
	})
	t.Run("mag70", func(t *testing.T) {
		cm, prog := compileZooPruned(t, "resnet20", calib, 0.7, false)
		assertAnyBatchParity(t, cm.Int, prog, cifar, engine.FastKernels(), "i32-sparse")
	})
	t.Run("nm24", func(t *testing.T) {
		cm, prog := compileZooPruned(t, "resnet20", calib, 0, true)
		assertAnyBatchParity(t, cm.Int, prog, cifar, engine.FastKernelsWithout(engine.CapSwar), "i32-nm")
	})
}

// TestOneExecutorSteadyStateAllocs: once a batch size has run, executing
// it again allocates nothing — the view, its operand lists and the job
// grids are cached per n.
func TestOneExecutorSteadyStateAllocs(t *testing.T) {
	g := tensor.NewRNG(39)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	im, cnn := compile(t, smallCNN(g), calib)
	vit, vitProg := compileViT(t, 3, 2)
	for _, tc := range []struct {
		name   string
		im     *fuse.IntModel
		prog   *engine.Program
		sample []int
	}{
		{"smallcnn", im, cnn, []int{3, 8, 8}},
		{"vit", vit.Int, vitProg, []int{3, 32, 32}},
	} {
		for _, maxPar := range []int{1, 4} {
			ex, err := engine.NewExecutor(tc.prog, append([]int{viewBound}, tc.sample...), engine.WithMaxParallel(maxPar))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range viewOrder {
				codes := tc.im.InQuant.Quantize(g.Uniform(0, 1, append([]int{n}, tc.sample...)...))
				dst, err := ex.ExecuteCodes(codes, nil)
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := ex.ExecuteCodes(codes, dst); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s maxPar %d n=%d: %v allocations per steady-state ExecuteCodes, want 0", tc.name, maxPar, n, allocs)
				}
			}
		}
	}
}
