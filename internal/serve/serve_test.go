package serve_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/fuse"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
)

// buildCheckpoint compiles a small CNN (3×8×8 inputs) seeded with seed
// and returns its servable checkpoint plus the interpreter oracle.
// Different seeds yield different weights, so two checkpoints make a
// distinguishable v1/v2 hot-reload pair.
func buildCheckpoint(t testing.TB, seed int64) (*export.Checkpoint, *fuse.IntModel) {
	t.Helper()
	g := tensor.NewRNG(seed)
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
	cm.Prog.InShape = []int{3, 8, 8}
	ck := export.NewCheckpoint(cm.Int.IntTensors(), nil)
	ck.Program = cm.Prog.Spec()
	return ck, cm.Int
}

// predict serves x through name with no deadline at normal priority.
func predict(reg *serve.Registry, name string, x *tensor.Tensor) (serve.PredictResult, error) {
	return reg.Predict(name, x, time.Time{}, engine.PriNormal, 0)
}

func assertSame(t *testing.T, got, want *tensor.Tensor, ctx string) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d logits, want %d", ctx, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: logit[%d] = %v, want %v (must be bit-identical)", ctx, i, got.Data[i], want.Data[i])
		}
	}
}

func TestRegistryLoadAndInfer(t *testing.T) {
	ck, im := buildCheckpoint(t, 1)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	info, err := reg.Load("cnn", ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("first load version = %d, want 1", info.Version)
	}
	if len(info.Sample) != 3 || info.Sample[0] != 3 || info.Sample[1] != 8 || info.Sample[2] != 8 {
		t.Fatalf("sample shape from checkpoint = %v, want [3 8 8]", info.Sample)
	}

	g := tensor.NewRNG(100)
	x := g.Uniform(0, 1, 1, 3, 8, 8)
	res, err := predict(reg, "cnn", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("served version = %d, want 1", res.Version)
	}
	assertSame(t, res.Y, im.Forward(x), "registry infer")

	if _, err := predict(reg, "missing", x); err != serve.ErrNotFound {
		t.Fatalf("unknown model returned %v, want ErrNotFound", err)
	}
	ms := reg.Models()
	if len(ms) != 1 || ms[0].Name != "cnn" || ms[0].Stats.Requests != 1 {
		t.Fatalf("listing = %+v, want one cnn entry with 1 request", ms)
	}
	if ms[0].Cost.ModeledBatchNs <= 0 {
		t.Fatalf("modeled full-batch cost = %d ns, want > 0", ms[0].Cost.ModeledBatchNs)
	}
	if err := reg.Remove("cnn"); err != nil {
		t.Fatal(err)
	}
	if _, err := predict(reg, "cnn", x); err != serve.ErrNotFound {
		t.Fatalf("removed model returned %v, want ErrNotFound", err)
	}
}

func TestRegistryRequiresShapeForLegacyCheckpoints(t *testing.T) {
	ck, im := buildCheckpoint(t, 2)
	ck.Program.InShape = nil // simulate a pre-PR-3 checkpoint
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	if _, err := reg.Load("legacy", ck, nil); err == nil {
		t.Fatal("load without a recorded or explicit shape must fail")
	}
	if _, err := reg.Load("legacy", ck, []int{3, 8, 8}); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(101)
	x := g.Uniform(0, 1, 1, 3, 8, 8)
	res, err := predict(reg, "legacy", x)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, res.Y, im.Forward(x), "legacy checkpoint infer")
}

// TestRegistryHotReloadPrunedWeights: a dense resnet20 and then the
// same model pruned to 70 % load under one name. Each version is its
// own immutable Program with its own prepacked weights, so the second
// version binds the sparse kernels from its own weights, with nothing
// left over from the first, and answers exactly like its interpreter.
func TestRegistryHotReloadPrunedWeights(t *testing.T) {
	dense, _ := buildZooCheckpoint(t, "resnet20", 0)
	pruned, im := buildZooCheckpoint(t, "resnet20", 0.7)
	reg := serve.NewRegistry(serve.Options{Engine: engine.ServerOptions{Workers: 1, MaxBatch: 1}, CacheCapacity: -1})
	defer reg.Close()
	x := tensor.NewRNG(17).Uniform(0, 1, 1, 3, 32, 32)
	for v, ck := range []*export.Checkpoint{dense, pruned} {
		if _, err := reg.Load("m", ck, nil); err != nil {
			t.Fatal(err)
		}
		res, err := reg.Predict("m", x, time.Time{}, engine.PriNormal, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != v+1 {
			t.Fatalf("served version %d, want %d", res.Version, v+1)
		}
	}
	ex, err := reg.Explain("m")
	if err != nil {
		t.Fatal(err)
	}
	sparse := 0
	for _, row := range ex.Instrs {
		if row.Path == "i32-sparse" {
			sparse++
		}
	}
	if sparse == 0 {
		t.Fatal("the pruned version binds no i32-sparse instruction")
	}
	res, err := reg.Predict("m", x, time.Time{}, engine.PriNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := im.Forward(x)
	for i, w := range want.Data {
		if res.Y.Data[i] != w {
			t.Fatalf("pruned version logit[%d] = %v, interpreter %v", i, res.Y.Data[i], w)
		}
	}
}

// TestRegistryHotReloadUnderTraffic swaps checkpoints while concurrent
// clients hammer the model and requires (a) zero dropped or failed
// requests, (b) every response bit-identical to IntModel.Forward of the
// version that served it, and (c) both versions actually observed, so
// the swap demonstrably happened mid-traffic. The ordering is fixed by
// the test, not by timing: the swap starts only after v1 has served,
// every client keeps sending until Load has returned and then sends a
// fixed number more — requests issued after Load returns are served by
// v2. The cache is off, so every request reaches the servers being
// swapped. Run under -race in CI.
func TestRegistryHotReloadUnderTraffic(t *testing.T) {
	ck1, im1 := buildCheckpoint(t, 10)
	ck2, im2 := buildCheckpoint(t, 20)

	reg := serve.NewRegistry(serve.Options{
		CacheCapacity: -1,
		Engine:        engine.ServerOptions{Workers: 2, MaxBatch: 4},
	})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck1, nil); err != nil {
		t.Fatal(err)
	}

	// Fixed request set with both oracles precomputed up front, so
	// goroutines never touch the (non-thread-safe) interpreters.
	const K = 6
	g := tensor.NewRNG(300)
	inputs := make([]*tensor.Tensor, K)
	want := map[int][]*tensor.Tensor{1: make([]*tensor.Tensor, K), 2: make([]*tensor.Tensor, K)}
	for k := 0; k < K; k++ {
		inputs[k] = g.Uniform(0, 1, 1, 3, 8, 8)
		want[1][k] = im1.Forward(inputs[k])
		want[2][k] = im2.Forward(inputs[k])
	}

	// Each client sends until the reload has returned, then after more.
	// maxBefore only bounds a client whose reload never comes, so a
	// broken ordering fails on the assertions below instead of hanging.
	const clients, after, maxBefore = 12, 20, 5000
	var loaded atomic.Bool
	var served, failed atomic.Int64
	var sawV1, sawV2 atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			left := after
			for r := 0; left > 0; r++ {
				if loaded.Load() || r >= maxBefore {
					left--
				}
				k := (c + r) % K
				res, err := predict(reg, "cnn", inputs[k])
				if err != nil {
					failed.Add(1)
					t.Errorf("client %d req %d: %v (no request may be dropped)", c, r, err)
					return
				}
				y, version := res.Y, res.Version
				oracle := want[version]
				if oracle == nil {
					failed.Add(1)
					t.Errorf("client %d req %d: served by unknown version %d", c, r, version)
					return
				}
				switch version {
				case 1:
					sawV1.Add(1)
				case 2:
					sawV2.Add(1)
				}
				for i := range oracle[k].Data {
					if y.Data[i] != oracle[k].Data[i] {
						failed.Add(1)
						t.Errorf("client %d req %d: logit[%d] = %v, version-%d interpreter %v",
							c, r, i, y.Data[i], version, oracle[k].Data[i])
						return
					}
				}
				served.Add(1)
			}
		}(c)
	}

	// Swap once every client's worth of traffic has been served by v1,
	// so the reload demonstrably lands mid-flight.
	for served.Load() < clients && failed.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	info, err := reg.Load("cnn", ck2, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Store(true)
	if info.Version != 2 {
		t.Fatalf("reload version = %d, want 2", info.Version)
	}
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed or diverged", failed.Load())
	}
	if sawV1.Load() == 0 || sawV2.Load() == 0 {
		t.Fatalf("versions served: v1=%d v2=%d; the reload did not land mid-traffic",
			sawV1.Load(), sawV2.Load())
	}
	// Post-swap requests must be served by v2 only.
	res, err := predict(reg, "cnn", inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("post-reload version = %d, want 2", res.Version)
	}
	assertSame(t, res.Y, want[2][0], "post-reload infer")
}

// blockingKernels parks the conv kernel on release (signalling gate on
// entry) so tests can hold a worker mid-execute.
func blockingKernels(gate chan struct{}, release chan struct{}) *engine.Registry {
	reg := engine.FastKernels()
	base, _ := reg.Lookup(engine.OpConv)
	reg.Register(engine.OpConv, func(ex *engine.Executor, idx int, it *engine.Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
		select {
		case gate <- struct{}{}:
		default:
		}
		<-release
		base(ex, idx, it, in, out)
	})
	return reg
}

// waitDepth polls the registry's only model until its queue depth
// reads want.
func waitDepth(t *testing.T, reg *serve.Registry, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Models()[0].QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", want, reg.Models()[0].QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRegistryAdmissionSheds: the queue is the model's only admission
// point, and it sheds by class. With the worker held and the queue full
// of low-class samples, a low-class arrival is refused, while a
// normal-class arrival is admitted by evicting the least urgent waiter,
// whose caller gets ErrQueueFull. Both count as low-class sheds.
func TestRegistryAdmissionSheds(t *testing.T) {
	ck, _ := buildCheckpoint(t, 3)
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := serve.NewRegistry(serve.Options{
		Engine: engine.ServerOptions{Workers: 1, MaxBatch: 1, QueueSize: 2, Kernels: blockingKernels(gate, release)},
	})
	defer reg.Close()
	// Runs before Close, so a failed assertion cannot leave it waiting
	// on the held worker.
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}

	g := tensor.NewRNG(400)
	var wg sync.WaitGroup
	fire := func(n int, class engine.PriorityClass) chan error {
		xs := samples(g, n)
		errc := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := reg.PredictBatch("cnn", xs, time.Time{}, class, 0)
			errc <- err
		}()
		return errc
	}
	held := fire(1, engine.PriNormal)
	<-gate
	group := fire(2, engine.PriLow) // the batcher's hand + 1 queued
	waitDepth(t, reg, 1)
	victim := fire(1, engine.PriLow)
	waitDepth(t, reg, 2)

	if _, err := reg.PredictBatch("cnn", samples(g, 1), time.Time{}, engine.PriLow, 0); !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("low-class request at a full queue returned %v, want ErrQueueFull", err)
	}
	normal := fire(1, engine.PriNormal)
	select {
	case err := <-victim:
		if !errors.Is(err, engine.ErrQueueFull) {
			t.Fatalf("evicted low-class request returned %v, want ErrQueueFull", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a normal-class arrival at a full queue evicted no low-class waiter")
	}
	unblock()
	wg.Wait()
	for what, errc := range map[string]chan error{"held": held, "low-class group": group, "normal-class arrival": normal} {
		if err := <-errc; err != nil {
			t.Fatalf("%s request failed: %v", what, err)
		}
	}
	st := reg.Models()[0].Stats
	if st.Rejected != 2 || st.ShedLow != 2 || st.Requests != 4 {
		t.Fatalf("stats %+v, want 2 rejected, both low-class, and 4 served", st)
	}
}

// TestRegistryCloseLeaksNoGoroutines: Close stops every goroutine the
// registry started, those of a version retired by a hot reload under
// traffic included.
func TestRegistryCloseLeaksNoGoroutines(t *testing.T) {
	ck1, _ := buildCheckpoint(t, 40)
	ck2, _ := buildCheckpoint(t, 41)
	// The kernel thread pool is process-wide and persistent by design:
	// start it before counting.
	tensor.InitParallel()
	start := runtime.NumGoroutine()

	reg := serve.NewRegistry(serve.Options{CacheCapacity: -1, Engine: engine.ServerOptions{Workers: 2}})
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Load(name, ck1, nil); err != nil {
			t.Fatal(err)
		}
	}
	g := tensor.NewRNG(500)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		x := g.Uniform(0, 1, 1, 3, 8, 8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if _, err := predict(reg, "a", x); err != nil {
					t.Errorf("predict during reload: %v", err)
					return
				}
			}
		}()
	}
	if _, err := reg.Load("a", ck2, nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	reg.Close()

	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > start; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5 s after Close, %d before the registry:\n%s", n, start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// buildViTCheckpoint compiles a small ViT into a servable checkpoint —
// the transformer counterpart of buildCheckpoint, exercising the v4
// program section (matmul/layernorm/softmax/gelu instrs and tables)
// through the serving stack.
func buildViTCheckpoint(t testing.TB, seed int64) (*export.Checkpoint, *fuse.IntModel) {
	t.Helper()
	g := tensor.NewRNG(seed)
	cfg := models.ViT7(32, 10)
	cfg.Depth = 1
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
	ck := export.NewCheckpoint(cm.Int.IntTensors(), nil)
	ck.Program = cm.Prog.Spec()
	return ck, cm.Int
}

// TestRegistryServesViTWithHotReload: a ViT checkpoint loads into the
// registry, serves bit-identical predictions, hot-reloads to a second
// version, and keeps serving the new weights.
func TestRegistryServesViTWithHotReload(t *testing.T) {
	ck1, im1 := buildViTCheckpoint(t, 11)
	ck2, im2 := buildViTCheckpoint(t, 12)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	info, err := reg.Load("vit", ck1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Sample) != 3 || info.Sample[0] != 3 || info.Sample[1] != 32 || info.Sample[2] != 32 {
		t.Fatalf("vit sample shape from checkpoint = %v, want [3 32 32]", info.Sample)
	}

	g := tensor.NewRNG(100)
	x := g.Uniform(0, 1, 1, 3, 32, 32)
	res, err := predict(reg, "vit", x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("served version = %d, want 1", res.Version)
	}
	assertSame(t, res.Y, im1.Forward(x), "vit v1 infer")

	if _, err := reg.Load("vit", ck2, nil); err != nil {
		t.Fatal(err)
	}
	res2, err := predict(reg, "vit", x)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Version != 2 {
		t.Fatalf("served version after reload = %d, want 2", res2.Version)
	}
	assertSame(t, res2.Y, im2.Forward(x), "vit v2 infer")
}

// TestRegistryLoadPanicReleasesClose: a panic while Load binds a model
// version (a corrupt program can panic in the engine) must not leave the
// registry's drain count held — the registry keeps loading, and Close
// returns instead of waiting forever for a version that never existed.
func TestRegistryLoadPanicReleasesClose(t *testing.T) {
	ck, _ := buildCheckpoint(t, 9)
	reg := serve.NewRegistry(serve.Options{CacheCapacity: -1})
	restore := serve.SwapNewServer(func(*engine.Program, []int, engine.ServerOptions) (*engine.Server, error) {
		panic("bind failed")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Load returned instead of propagating the bind panic")
			}
		}()
		reg.Load("cnn", ck, nil)
	}()
	restore()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatalf("Load after a panicking Load: %v", err)
	}
	done := make(chan struct{})
	go func() {
		reg.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a Load that panicked while binding")
	}
}
