package engine_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/tensor"
)

// blockingKernels returns a registry whose conv kernel parks on release
// (signalling gate on entry), so tests can hold a worker mid-execute and
// fill the admission pipeline deterministically.
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

func TestServerValidatesSampleShape(t *testing.T) {
	g := tensor.NewRNG(41)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	_, prog := compile(t, model, calib)
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The documented forms must both work.
	if _, err := srv.Infer(g.Uniform(0, 1, 3, 8, 8)); err != nil {
		t.Fatalf("sample-shaped input rejected: %v", err)
	}
	if _, err := srv.Infer(g.Uniform(0, 1, 1, 3, 8, 8)); err != nil {
		t.Fatalf("[1,sample...] input rejected: %v", err)
	}
	// Same element count, different layout: must be rejected, not
	// silently misinferred.
	if _, err := srv.Infer(g.Uniform(0, 1, 8, 8, 3)); err == nil {
		t.Fatal("transposed-layout input with matching Numel was accepted")
	}
	if _, err := srv.Infer(g.Uniform(0, 1, 192)); err == nil {
		t.Fatal("flat input with matching Numel was accepted")
	}
	if _, err := srv.Infer(g.Uniform(0, 1, 2, 3, 8, 8)); err == nil {
		t.Fatal("batch-of-two input was accepted")
	}
}

func TestServerTryInferQueueFull(t *testing.T) {
	g := tensor.NewRNG(42)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	_, prog := compile(t, model, calib)

	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{
		Workers: 1, MaxBatch: 1, QueueSize: 1, Kernels: blockingKernels(gate, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	// LIFO defers: unblock the kernel, let every request finish, then
	// Close — a blocked sender holds the server's read lock, so Close
	// must come last even when the test bails out early.
	defer wg.Wait()
	defer unblock()

	// Hold the single worker mid-execute, then oversubscribe the
	// pipeline (worker + batcher's hand + queue = 3 slots) so the queue
	// stays full until the kernel is released. One
	// prebuilt input is shared read-only: the RNG is not thread-safe.
	x := g.Uniform(0, 1, 3, 8, 8)
	codes := quantize(prog, x)
	infer := func() {
		defer wg.Done()
		if _, err := srv.Infer(x); err != nil {
			t.Errorf("blocking Infer failed: %v", err)
		}
	}
	wg.Add(1)
	go infer()
	<-gate
	const extra = 7
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go infer()
	}

	// TryInferCodes must fast-fail once the queue is full. Polls that sneak
	// in while the pipeline is still filling are admitted and park on
	// their reply, so each poll runs in its own goroutine; admitted
	// polls complete after release and count as served requests.
	deadline := time.Now().Add(10 * time.Second)
	sawFull := false
	for !sawFull {
		if time.Now().After(deadline) {
			t.Error("TryInferCodes never reported a full queue on a saturated server")
			return
		}
		res := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.TryInferCodes([]*tensor.IntTensor{codes}, time.Time{}, engine.PriNormal, 0)
			if err != nil && !errors.Is(err, engine.ErrQueueFull) {
				t.Errorf("TryInferCodes returned unexpected error: %v", err)
			}
			res <- err
		}()
		select {
		case err := <-res:
			sawFull = errors.Is(err, engine.ErrQueueFull)
		case <-time.After(200 * time.Millisecond):
			// Admitted and parked; it finishes after release.
		}
	}

	unblock()
	wg.Wait()
	st := srv.Stats()
	if st.Rejected < 1 {
		t.Fatalf("stats rejected = %d, want ≥ 1", st.Rejected)
	}
	if st.Requests < 1+extra {
		t.Fatalf("stats requests = %d, want ≥ %d (no admitted request may be dropped)", st.Requests, 1+extra)
	}
}

func TestServerDeadlineDropsUnexecuted(t *testing.T) {
	g := tensor.NewRNG(43)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	_, prog := compile(t, model, calib)

	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{
		Workers: 1, MaxBatch: 1, Kernels: blockingKernels(gate, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	x1, x2 := g.Uniform(0, 1, 3, 8, 8), g.Uniform(0, 1, 3, 8, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Infer(x1); err != nil {
			t.Errorf("blocking Infer failed: %v", err)
		}
	}()
	<-gate

	// Queued behind the held worker with a deadline that expires while it
	// waits: the worker must drop it unexecuted.
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := srv.TryInferCodes([]*tensor.IntTensor{quantize(prog, x2)}, time.Now().Add(20*time.Millisecond), engine.PriNormal, 0)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if err := <-errc; !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("expired request returned %v, want ErrDeadlineExceeded", err)
	}
	st := srv.Stats()
	if st.Expired != 1 {
		t.Fatalf("stats expired = %d, want 1", st.Expired)
	}
	if st.Requests != 1 {
		t.Fatalf("stats requests = %d, want 1", st.Requests)
	}
}

// TestServerMemoryIsOneMaxBatchPlanPerWorker: after ragged groups of
// every size 1..MaxBatch, each worker holds exactly one executor planned
// at MaxBatch — the arena gauge is Workers × the MaxBatch plan, with no
// executor per batch size — and the scratch gauge is Workers × an
// executor's steady-state scratch once the largest batch has run.
func TestServerMemoryIsOneMaxBatchPlanPerWorker(t *testing.T) {
	g := tensor.NewRNG(91)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	_, prog := compile(t, smallCNN(g), calib)
	const maxBatch = 8
	sample := []int{3, 8, 8}
	inShape := append([]int{maxBatch}, sample...)
	plan, err := prog.PlanBuffers(inShape)
	if err != nil {
		t.Fatal(err)
	}
	group := func(n int) []*tensor.IntTensor {
		codes := make([]*tensor.IntTensor, n)
		for i := range codes {
			codes[i] = quantize(prog, g.Uniform(0, 1, 1, 3, 8, 8))
		}
		return codes
	}
	for _, workers := range []int{1, 2} {
		opts := engine.ServerOptions{Workers: workers, MaxBatch: maxBatch}
		srv, err := engine.NewServer(prog, sample, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// Each group runs as one batch of exactly its (ragged) size.
		for n := 1; n <= maxBatch; n++ {
			if _, err := srv.TryInferCodes(group(n), time.Time{}, engine.PriNormal, 0); err != nil {
				t.Fatal(err)
			}
		}
		// A batch runs on whichever worker is idle: send full batches from
		// every worker's worth of clients until each worker has bound its
		// executor.
		want := int64(workers) * plan.ArenaBytes
		for round := 0; srv.MemStats().ArenaBytes < want; round++ {
			if round == 100 {
				t.Fatalf("workers %d: arena bytes %d after %d rounds of concurrent full batches, want %d",
					workers, srv.MemStats().ArenaBytes, round, want)
			}
			var wg sync.WaitGroup
			for c := 0; c < workers; c++ {
				codes := group(maxBatch)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := srv.TryInferCodes(codes, time.Time{}, engine.PriNormal, 0); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		}

		ref, err := engine.NewExecutor(prog, inShape, engine.WithMaxParallel(opts.WithDefaults().KernelThreads))
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= maxBatch; n++ {
			if _, err := ref.ExecuteCodes(tensor.NewInt(append([]int{n}, sample...)...), nil); err != nil {
				t.Fatal(err)
			}
		}
		mem := srv.MemStats()
		t.Logf("workers %d: arena %d B, scratch %d B (MaxBatch plan %d B, executor scratch %d B)",
			workers, mem.ArenaBytes, mem.ScratchBytes, plan.ArenaBytes, ref.ScratchBytes())
		if mem.ArenaBytes != want {
			t.Fatalf("workers %d: arena bytes %d, want exactly %d × %d", workers, mem.ArenaBytes, workers, plan.ArenaBytes)
		}
		if w := int64(workers) * ref.ScratchBytes(); mem.ScratchBytes != w {
			t.Fatalf("workers %d: scratch bytes %d, want exactly %d × %d", workers, mem.ScratchBytes, workers, ref.ScratchBytes())
		}
	}
}

func TestServerOptionsBoundKernelThreads(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	// Defaults must never oversubscribe: Workers×KernelThreads ≤ GOMAXPROCS.
	d := engine.ServerOptions{}.WithDefaults()
	if d.KernelThreads < 1 {
		t.Fatalf("default KernelThreads %d < 1", d.KernelThreads)
	}
	if d.Workers*d.KernelThreads > maxp {
		t.Fatalf("default Workers(%d)×KernelThreads(%d) oversubscribes GOMAXPROCS=%d",
			d.Workers, d.KernelThreads, maxp)
	}
	// An explicitly oversubscribed config is trimmed on the kernel-thread
	// side, down to the floor of 1 thread per worker.
	o := engine.ServerOptions{Workers: 2 * maxp, KernelThreads: 2 * maxp}.WithDefaults()
	if o.Workers != 2*maxp {
		t.Fatalf("explicit Workers rewritten: %d", o.Workers)
	}
	if o.KernelThreads != 1 {
		t.Fatalf("oversubscribed KernelThreads resolved to %d, want floor 1", o.KernelThreads)
	}
	// A config that fits is kept verbatim.
	k := engine.ServerOptions{Workers: 1, KernelThreads: maxp}.WithDefaults()
	if k.KernelThreads != maxp {
		t.Fatalf("fitting KernelThreads rewritten: %d, want %d", k.KernelThreads, maxp)
	}
}

// TestServerOversubscribedDrains is the regression test for the worker
// budget: a config whose worker × kernel-thread product far exceeds the
// machine must still serve every request correctly and drain on Close,
// with each executor's parallelism clamped instead of the replicas
// multiplying into the pool.
func TestServerOversubscribedDrains(t *testing.T) {
	g := tensor.NewRNG(47)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	model := smallCNN(g)
	_, prog := compile(t, model, calib)

	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{
		Workers:       8,
		KernelThreads: 8,
		MaxBatch:      4,
		Kernels:       engine.FastKernels(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: a plain single-sample executor on the same registry.
	ref, err := engine.NewExecutor(prog, []int{1, 3, 8, 8}, engine.WithKernels(engine.FastKernels()))
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	inputs := make([]*tensor.Tensor, n)
	want := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = g.Uniform(0, 1, 3, 8, 8)
		y, err := ref.Execute(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y, err := srv.Infer(inputs[i])
			if err != nil {
				t.Error(err)
				return
			}
			for j := range y.Data {
				if y.Data[j] != want[i].Data[j] {
					t.Errorf("request %d diverges from the reference executor at %d", i, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	srv.Close() // must drain, not deadlock
	if got := srv.Stats().Requests; got != n {
		t.Fatalf("served %d of %d requests", got, n)
	}
}
