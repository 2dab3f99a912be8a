package engine_test

import (
	"bytes"
	"strings"
	"sync"
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

// compile runs prepare→calibrate→convert→lower on a model over synthetic
// CIFAR data and returns the interpreter and the compiled program.
func compile(t testing.TB, model nn.Layer, calib *data.Dataset) (*fuse.IntModel, *engine.Program) {
	t.Helper()
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
	return cm.Int, cm.Prog
}

// smallCNN is a conv-bn-relu ×2 → pool → linear chain with realistic BN
// statistics.
func smallCNN(g *tensor.RNG) nn.Layer {
	model := nn.NewSequential(
		nn.NewConv2d(g, 3, 8, 3, 1, 1, 1, false),
		nn.NewBatchNorm2d(8),
		&nn.ReLU{},
		nn.NewConv2d(g, 8, 8, 3, 2, 1, 1, false),
		nn.NewBatchNorm2d(8),
		&nn.ReLU{},
		&nn.AvgPool{Kernel: 0},
		&nn.Flatten{},
		nn.NewLinear(g, 8, 10, true),
	)
	for i := 0; i < 4; i++ {
		model.Forward(g.Uniform(0, 1, 4, 3, 8, 8))
	}
	return model
}

// namedReg is one row of a parity suite's registry list; the lists are
// slices so every run draws the same input for the same row.
type namedReg struct {
	name string
	reg  *engine.Registry
}

// interpWant is the interpreter's answer on one batch input: its input
// codes, output codes and logits, computed once and compared against
// every registry's execution.
type interpWant struct {
	x      *tensor.Tensor
	in     *tensor.IntTensor
	codes  *tensor.IntTensor
	logits *tensor.Tensor
}

// wantOf is the "want" step of assertBitIdentical: it runs the
// interpreter on x.
func wantOf(im *fuse.IntModel, x *tensor.Tensor) interpWant {
	return interpWant{x: x, in: im.InQuant.Quantize(x), codes: im.ForwardCodes(x), logits: im.Forward(x)}
}

// compareBitIdentical is the "compare" step: the program must reproduce
// the interpreter's output codes and logits exactly under reg.
func compareBitIdentical(t *testing.T, want interpWant, prog *engine.Program, reg *engine.Registry, opts ...engine.ExecOption) {
	t.Helper()
	ex, err := engine.NewExecutor(prog, want.x.Shape, append([]engine.ExecOption{engine.WithKernels(reg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	gotCodes, err := ex.ExecuteCodes(want.in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.codes.Data) != len(gotCodes.Data) {
		t.Fatalf("code count %d vs %d", len(gotCodes.Data), len(want.codes.Data))
	}
	for i := range want.codes.Data {
		if want.codes.Data[i] != gotCodes.Data[i] {
			t.Fatalf("code[%d] = %d, interpreter %d", i, gotCodes.Data[i], want.codes.Data[i])
		}
	}
	got, err := ex.Execute(want.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.logits.Data {
		if want.logits.Data[i] != got.Data[i] {
			t.Fatalf("logit[%d] = %v, interpreter %v", i, got.Data[i], want.logits.Data[i])
		}
	}
}

// assertBitIdentical checks that the program reproduces the interpreter's
// output codes and logits exactly on batch inputs.
func assertBitIdentical(t *testing.T, im *fuse.IntModel, prog *engine.Program, x *tensor.Tensor, reg *engine.Registry, opts ...engine.ExecOption) {
	t.Helper()
	compareBitIdentical(t, wantOf(im, x), prog, reg, opts...)
}

// assertInt64Bound fails unless every conv/linear of prog binds an int64
// kernel under reg, so a parity row meant for those kernels can never
// silently compare the reference body against itself.
func assertInt64Bound(t *testing.T, prog *engine.Program, inShape []int, reg *engine.Registry) {
	t.Helper()
	ex, err := engine.NewExecutor(prog, inShape, engine.WithKernels(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ex.KernelChoices() {
		if (c.Kind == engine.OpConv || c.Kind == engine.OpLinear) && !strings.HasPrefix(c.Path, "i64-") {
			t.Fatalf("%s bound %q, want an i64 path", c.Name, c.Path)
		}
	}
}

func TestExecuteBitIdenticalSmallCNN(t *testing.T) {
	g := tensor.NewRNG(1)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	// The synthetic dataset is 32×32; smallCNN was warmed on 8×8 — both
	// work since the model is input-size agnostic until the flatten.
	im, prog := compile(t, model, calib)
	x := g.Uniform(0, 1, 4, 3, 8, 8)
	t.Run("fast", func(t *testing.T) { assertBitIdentical(t, im, prog, x, engine.FastKernels()) })
	t.Run("reference", func(t *testing.T) { assertBitIdentical(t, im, prog, x, engine.ReferenceKernels()) })
}

func TestExecuteBitIdenticalZoo(t *testing.T) {
	calib, _ := data.Generate(data.SynthCIFAR10, 48, 8)
	for _, tc := range []struct {
		name  string
		build func(g *tensor.RNG) nn.Layer
	}{
		{"resnet20", func(g *tensor.RNG) nn.Layer { return models.NewResNet(g, models.ResNet20(10)) }},
		{"resnet18", func(g *tensor.RNG) nn.Layer { return models.NewResNet(g, models.ResNet18(10)) }},
		{"resnet50", func(g *tensor.RNG) nn.Layer { return models.NewResNet(g, models.ResNet50(10)) }},
		{"mobilenet", func(g *tensor.RNG) nn.Layer {
			return models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tensor.NewRNG(7)
			model := tc.build(g)
			// Realistic BN running statistics before freezing.
			x, _ := calib.Batch([]int{0, 1, 2, 3})
			model.Forward(x)
			im, prog := compile(t, model, calib)
			for _, batch := range []int{1, 3} {
				xb := g.Uniform(0, 1, batch, 3, 32, 32)
				assertBitIdentical(t, im, prog, xb, engine.FastKernels())
			}
		})
	}
}

// The ViT deploy path is covered by the zoo-parity suite in vit_test.go:
// since PR 5, Convert lowers attention/LayerNorm/GELU/softmax to
// integer-only layers and the compiled program must match
// IntModel.Forward bit for bit (TestViTZooParity replaces the old
// TestViTNotLowerable, which asserted the compile failed).

func TestPlannerReusesBuffers(t *testing.T) {
	g := tensor.NewRNG(11)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := models.NewResNet(g, models.ResNet20(10))
	x, _ := calib.Batch([]int{0, 1})
	model.Forward(x)
	_, prog := compile(t, model, calib)
	plan, err := prog.PlanBuffers([]int{8, 3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaBytes >= plan.NaiveBytes {
		t.Fatalf("planned %d bytes not smaller than naive %d", plan.ArenaBytes, plan.NaiveBytes)
	}
	// A deep residual chain should reuse aggressively: expect ≥2× saving.
	if 2*plan.ArenaBytes > plan.NaiveBytes {
		t.Errorf("planned %d vs naive %d: expected ≥2× reuse", plan.ArenaBytes, plan.NaiveBytes)
	}
	// Every buffer must fit inside its dtype's arena.
	for b, off := range plan.Offsets {
		if off < 0 {
			continue
		}
		if end := off + tensor.Numel(plan.Shapes[b]); end > plan.ArenaElems[plan.DTypes[b]] {
			t.Fatalf("buffer %d (%s) [%d,%d) exceeds arena %d", b, plan.DTypes[b], off, end, plan.ArenaElems[plan.DTypes[b]])
		}
	}
}

func TestPlannerRejectsBadShape(t *testing.T) {
	g := tensor.NewRNG(12)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	_, prog := compile(t, model, calib)
	if _, err := prog.PlanBuffers([]int{1, 3}); err == nil {
		t.Fatal("expected rank error")
	}
}

// TestExecutorRejectsWrongInput: inputs an executor cannot view — a
// batch of 0, a batch above the bound, a wrong per-sample shape, a
// partial sample, a dst of another batch — are errors, not panics.
func TestExecutorRejectsWrongInput(t *testing.T) {
	g := tensor.NewRNG(13)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	_, prog := compile(t, model, calib)
	ex, err := engine.NewExecutor(prog, []int{2, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Execute(g.Uniform(0, 1, 4, 3, 8, 8)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if _, err := ex.Execute(g.Uniform(0, 1, 100)); err == nil {
		t.Error("Execute accepted a partial sample")
	}
	for _, shape := range [][]int{{0, 3, 8, 8}, {3, 3, 8, 8}, {2, 3, 8, 9}, {2, 8, 8, 3}, {2, 3, 64}, {3, 8, 8}} {
		if _, err := ex.ExecuteCodes(tensor.NewInt(shape...), nil); err == nil {
			t.Errorf("ExecuteCodes accepted input %v against bound shape %v", shape, ex.InShape())
		}
	}
	if _, err := ex.ExecuteCodes(tensor.NewInt(1, 3, 8, 8), tensor.NewInt(2, 10)); err == nil {
		t.Error("ExecuteCodes accepted a batch-2 dst for a batch-1 input")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := tensor.NewRNG(21)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := models.NewResNet(g, models.ResNet20(10))
	x, _ := calib.Batch([]int{0, 1})
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

	// Serialize: program spec + the interpreter's tensor table (weight
	// names are shared between the two).
	cm.Prog.InShape = []int{3, 32, 32}
	ck := export.NewCheckpoint(cm.Int.IntTensors(), nil)
	ck.Program = cm.Prog.Spec()
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
	if len(prog2.InShape) != 3 || prog2.InShape[0] != 3 || prog2.InShape[1] != 32 || prog2.InShape[2] != 32 {
		t.Fatalf("round-tripped InShape = %v, want [3 32 32]", prog2.InShape)
	}

	xb := g.Uniform(0, 1, 2, 3, 32, 32)
	ex1, err := engine.NewExecutor(cm.Prog, xb.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := engine.NewExecutor(prog2, xb.Shape)
	if err != nil {
		t.Fatal(err)
	}
	y1, err := ex1.Execute(xb)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := ex2.Execute(xb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("round-tripped logit[%d] = %v, want %v", i, y2.Data[i], y1.Data[i])
		}
	}
	// And the round-tripped program still matches the interpreter.
	assertBitIdentical(t, cm.Int, prog2, xb, engine.FastKernels())
}

func TestFromCheckpointRejectsMissingProgram(t *testing.T) {
	ck := export.NewCheckpoint(map[string]*tensor.IntTensor{}, nil)
	if _, err := engine.FromCheckpoint(ck); err == nil {
		t.Fatal("expected error for checkpoint without program section")
	}
}

func TestServerMatchesDirectExecution(t *testing.T) {
	g := tensor.NewRNG(31)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	im, prog := compile(t, model, calib)

	// Hold the only worker on the first request, so the rest coalesce
	// behind it: one batch in the batcher's hand, the others queued.
	const n, maxBatch = 24, 4
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{
		Workers: 1, MaxBatch: maxBatch, QueueSize: n, Kernels: blockingKernels(gate, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer wg.Wait()
	defer unblock()

	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = g.Uniform(0, 1, 1, 3, 8, 8)
	}
	results := make([]*tensor.Tensor, n)
	infer := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, err := srv.Infer(inputs[i])
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = y
		}()
	}
	infer(0)
	<-gate
	for i := 1; i < n; i++ {
		infer(i)
	}
	awaitQueueDepth(t, srv, n-1-maxBatch)
	unblock()
	wg.Wait()
	for i := range inputs {
		if results[i] == nil {
			t.Fatalf("request %d returned no result", i)
		}
		want := im.Forward(inputs[i])
		for j := range want.Data {
			if results[i].Data[j] != want.Data[j] {
				t.Fatalf("request %d logit %d = %v, interpreter %v", i, j, results[i].Data[j], want.Data[j])
			}
		}
	}
	st := srv.Stats()
	if st.Requests != n {
		t.Fatalf("stats requests = %d, want %d", st.Requests, n)
	}
	// The held request ran alone; the backlog was never empty until its
	// last batch, so it drained in full batches.
	if want := int64(1 + (n-1+maxBatch-1)/maxBatch); st.Batches != want {
		t.Errorf("%d requests ran as %d batches, want %d", n, st.Batches, want)
	}
}

func TestServerRejectsAfterClose(t *testing.T) {
	g := tensor.NewRNG(32)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	_, prog := compile(t, model, calib)
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.Infer(g.Uniform(0, 1, 1, 3, 8, 8)); err == nil {
		t.Fatal("expected error after Close")
	}
	srv.Close() // double close must be safe
}

// statelessPrepKernels is FastKernels with conv, linear, matmul and
// softmax prep hooks that bind no state, which sends the packed conv,
// linear and matmul kernels and the typed softmax down their fallback to
// the reference bodies (over I64 arenas, since replacing a prep hook
// clears the registry's capability bits).
func statelessPrepKernels() *engine.Registry {
	r := engine.FastKernels()
	noState := func(*engine.Executor, int, *engine.Instr) (any, error) { return nil, nil }
	for _, k := range []engine.OpKind{engine.OpConv, engine.OpLinear, engine.OpMatMul, engine.OpSoftmax} {
		r.RegisterPrep(k, noState)
	}
	return r
}

func TestKernelRegistryPluggable(t *testing.T) {
	g := tensor.NewRNG(33)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	im, prog := compile(t, model, calib)
	// A registry missing a required kind must be rejected up front.
	reg := engine.NewRegistry()
	if _, err := engine.NewExecutor(prog, []int{1, 3, 8, 8}, engine.WithKernels(reg)); err == nil {
		t.Fatal("expected missing-kernel error")
	}
	// A custom kernel must be picked up: count conv invocations.
	calls := 0
	custom := engine.FastKernels()
	base, _ := custom.Lookup(engine.OpConv)
	custom.Register(engine.OpConv, func(ex *engine.Executor, idx int, it *engine.Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
		calls++
		base(ex, idx, it, in, out)
	})
	ex, err := engine.NewExecutor(prog, []int{1, 3, 8, 8}, engine.WithKernels(custom))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Execute(g.Uniform(0, 1, 1, 3, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("custom conv kernel called %d times, want 2", calls)
	}
	// The stateless-prep fallback must be bit-identical to the reference
	// registry on both the lowered and the fused program.
	stateless := statelessPrepKernels()
	unfused, err := engine.Lower(im)
	if err != nil {
		t.Fatal(err)
	}
	codes := im.InQuant.Quantize(g.Uniform(0, 1, 3, 3, 8, 8))
	for name, p := range map[string]*engine.Program{"unfused": unfused, "fused": prog} {
		assertSameCodes(t, execCodes(t, p, codes, stateless),
			execCodes(t, p, codes, engine.ReferenceKernels()), "stateless-prep/"+name)
	}
	// With no state bound, KernelChoices names the body that runs.
	exStateless, err := engine.NewExecutor(prog, []int{1, 3, 8, 8}, engine.WithKernels(stateless))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range exStateless.KernelChoices() {
		if c.Path != "reference" {
			t.Fatalf("stateless-prep %s reports path %q, want \"reference\"", c.Name, c.Path)
		}
	}
}
