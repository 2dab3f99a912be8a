package engine_test

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/tensor"
)

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want engine.PriorityClass
		ok   bool
	}{
		{"", engine.PriNormal, true},
		{"normal", engine.PriNormal, true},
		{"high", engine.PriHigh, true},
		{"low", engine.PriLow, true},
		{"urgent", 0, false},
	}
	for _, c := range cases {
		got, err := engine.ParsePriority(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParsePriority(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParsePriority(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := engine.ParseSchedPolicy("lifo"); err == nil {
		t.Fatal("ParseSchedPolicy accepted an unknown policy")
	}
	if p, err := engine.ParseSchedPolicy(""); err != nil || p != engine.SchedEDF {
		t.Fatalf("ParseSchedPolicy(\"\") = %v, %v, want EDF default", p, err)
	}
}

// blockingLinear parks the linear kernel on release, signalling gate on
// entry. smallCNN lowers to exactly one linear instruction, so — unlike
// blockingKernels' conv hook, which fires once per conv layer — each
// execute blocks exactly once, letting a test step the worker through
// the queue one request at a time.
func blockingLinear(gate chan struct{}, release chan struct{}) *engine.Registry {
	reg := engine.FastKernels()
	base, _ := reg.Lookup(engine.OpLinear)
	reg.Register(engine.OpLinear, func(ex *engine.Executor, idx int, it *engine.Instr, in []*tensor.IntTensor, out *tensor.IntTensor) {
		select {
		case gate <- struct{}{}:
		default:
		}
		<-release
		base(ex, idx, it, in, out)
	})
	return reg
}

// schedServer builds a Workers=1 MaxBatch=1 server whose linear kernel
// parks on release, so a test can hold the worker mid-execute and
// control exactly which queued request is served next.
func schedServer(t *testing.T, g *tensor.RNG, sched engine.SchedPolicy, queue int,
	gate chan struct{}, release chan struct{}) (*engine.Server, *engine.Program) {
	t.Helper()
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	_, prog := compile(t, smallCNN(g), calib)
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{
		Workers: 1, MaxBatch: 1, QueueSize: queue, Sched: sched,
		Kernels: blockingLinear(gate, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, prog
}

// quantize mirrors the serve-layer enqueue path: the codes handed to
// TryInferCodes are the program's own input quantization of x.
func quantize(prog *engine.Program, x *tensor.Tensor) *tensor.IntTensor {
	codes := tensor.NewInt(x.Shape...)
	prog.InQuant.QuantizeTo(codes, x)
	return codes
}

// TestServerEDFOrdersByDeadline holds the single worker mid-execute so
// two later requests with inverted deadlines are both queued, then
// releases the pipeline one execute at a time: EDF must serve the
// tighter deadline first even though it arrived second, and the same
// setup under FIFO must preserve arrival order.
func TestServerEDFOrdersByDeadline(t *testing.T) {
	for _, tc := range []struct {
		sched engine.SchedPolicy
		want  [2]string // completion order of the two queued requests
	}{
		{engine.SchedEDF, [2]string{"tight", "loose"}},
		{engine.SchedFIFO, [2]string{"loose", "tight"}},
	} {
		t.Run(string(tc.sched), func(t *testing.T) {
			g := tensor.NewRNG(53)
			gate := make(chan struct{}, 1)
			release := make(chan struct{})
			srv, prog := schedServer(t, g, tc.sched, 8, gate, release)
			x := quantize(prog, g.Uniform(0, 1, 3, 8, 8))

			var wg sync.WaitGroup
			var once sync.Once
			unblock := func() { once.Do(func() { close(release) }) }
			// LIFO: on any failure path, unblock the kernel so queued work
			// drains, then wait, then Close.
			defer srv.Close()
			defer wg.Wait()
			defer unblock()
			completions := make(chan string, 8)
			fire := func(label string, deadline time.Time) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := srv.TryInferCodes([]*tensor.IntTensor{x}, deadline, engine.PriNormal, 0); err != nil {
						t.Errorf("%s: %v", label, err)
						return
					}
					completions <- label
				}()
			}

			// Hold the worker, then fill the batcher's hand so later
			// requests stay *queued* where the policy decides their order.
			// With MaxBatch=1 the pipeline holds 2 requests ahead of the
			// queue: the executing one and the batcher's full hand, which
			// waits for the worker.
			far := time.Now().Add(time.Hour)
			fire("hold", far)
			<-gate
			fire("pipe", far)
			awaitHeld(t, srv, 2)
			fire("loose", time.Now().Add(20*time.Second))
			awaitQueueDepth(t, srv, 1)
			fire("tight", time.Now().Add(5*time.Second))
			awaitQueueDepth(t, srv, 2)

			// Step the kernel: each send on release lets exactly one
			// execute finish, so draining one completion per step records
			// the true serve order; each receive on gate means the next
			// execute reached the parked kernel.
			var order []string
			for served := 0; served < 4; served++ {
				select {
				case release <- struct{}{}:
				case <-time.After(10 * time.Second):
					t.Fatalf("no execute was waiting for release at step %d", served)
				}
				select {
				case label := <-completions:
					order = append(order, label)
				case <-time.After(10 * time.Second):
					t.Fatalf("request served at step %d never completed", served)
				}
				if served < 3 {
					select {
					case <-gate:
					case <-time.After(10 * time.Second):
						t.Fatalf("execute %d never reached the parked kernel", served+1)
					}
				}
			}
			wg.Wait()

			got := [2]string{order[2], order[3]}
			if got != tc.want {
				t.Fatalf("%s completion order = %v, want %v (full order %v)", tc.sched, got, tc.want, order)
			}
		})
	}
}

// awaitHeld polls until the server has taken n requests in total and
// none is left queued: with every worker held, the ones not executing
// sit in the batcher's open batch.
func awaitHeld(t *testing.T, srv *engine.Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Enqueued() != n || srv.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never held %d requests (enqueued %d, queued %d)", n, srv.Enqueued(), srv.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitQueueDepth polls until the server's queue holds exactly n
// requests (the surrounding test controls all enqueues).
func awaitQueueDepth(t *testing.T, srv *engine.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueDepth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, srv.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerPrioritySheds fills the EDF queue with low-class requests
// and sends one high-class request: the high one must be admitted by
// evicting a low victim, whose reply is ErrQueueFull.
func TestServerPrioritySheds(t *testing.T) {
	g := tensor.NewRNG(59)
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, prog := schedServer(t, g, engine.SchedEDF, 2, gate, release)
	var wg sync.WaitGroup
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer srv.Close()
	defer wg.Wait()
	defer unblock()
	x := quantize(prog, g.Uniform(0, 1, 3, 8, 8))

	errs := make(chan error, 16)
	fire := func(class engine.PriorityClass) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.TryInferCodes([]*tensor.IntTensor{x}, time.Time{}, class, 0)
			errs <- err
		}()
	}
	// Hold the worker and fill pipeline + queue entirely with low-class
	// requests (2 pipeline slots + 2 queue slots).
	fire(engine.PriLow)
	<-gate
	fire(engine.PriLow)
	awaitHeld(t, srv, 2)
	fire(engine.PriLow)
	awaitQueueDepth(t, srv, 1)
	fire(engine.PriLow)
	awaitQueueDepth(t, srv, 2)

	// A further low-class request bounces off the full queue...
	_, err := srv.TryInferCodes([]*tensor.IntTensor{x}, time.Time{}, engine.PriLow, 0)
	if !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("low-class push into a full queue returned %v, want ErrQueueFull", err)
	}
	// ...but a high-class request is admitted by evicting a low victim.
	fire(engine.PriHigh)
	var evicted error
	select {
	case evicted = <-errs:
	case <-time.After(10 * time.Second):
		t.Fatal("no queued request was evicted for the high-class arrival")
	}
	if !errors.Is(evicted, engine.ErrQueueFull) {
		t.Fatalf("evicted victim got %v, want ErrQueueFull", evicted)
	}

	unblock()
	wg.Wait()
	st := srv.Stats()
	if st.ShedLow != 2 {
		t.Fatalf("stats shed-low = %d, want 2 (one bounced, one evicted)", st.ShedLow)
	}
	if st.ShedHigh != 0 {
		t.Fatalf("stats shed-high = %d, want 0", st.ShedHigh)
	}
	// Everyone else completed: the held one, the batcher's hand, 2
	// queued... one of which was replaced by the high request.
	if st.Requests != 4 {
		t.Fatalf("stats requests = %d, want 4", st.Requests)
	}
}

// TestServerEstimateCost pins the cost estimator's contract: positive,
// the modeled cost of exactly the batch size asked for (3 samples cost
// less than 4 — no rounding up to a padded batch), equal to the
// per-instruction record's modeled work at that batch, and CostStats
// reporting the MaxBatch cost.
func TestServerEstimateCost(t *testing.T) {
	g := tensor.NewRNG(61)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	_, prog := compile(t, smallCNN(g), calib)
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{Workers: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, c3, c4, c8 := srv.EstimateCost(1), srv.EstimateCost(3), srv.EstimateCost(4), srv.EstimateCost(8)
	if c1 <= 0 {
		t.Fatalf("EstimateCost(1) = %v, want > 0", c1)
	}
	if !(c1 < c3 && c3 < c4 && c4 < c8) {
		t.Fatalf("EstimateCost(1, 3, 4, 8) = %v, %v, %v, %v, want strictly increasing", c1, c3, c4, c8)
	}
	ex3, err := engine.NewExecutor(prog, []int{3, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	var perSample float64
	for _, r := range ex3.Explain() {
		perSample += r.ModeledNs
	}
	if ns3 := int64(math.Round(3 * perSample)); int64(c3) != ns3 {
		t.Fatalf("EstimateCost(3) = %d ns, want the batch-3 modeled work %d ns", int64(c3), ns3)
	}
	if got := srv.CostStats().ModeledBatchNs; got != int64(c8) {
		t.Fatalf("CostStats().ModeledBatchNs = %d, want the MaxBatch cost %d", got, int64(c8))
	}
}

// TestServerCodesPathMatchesInfer proves the quantize-at-enqueue codes
// path returns bit-identical results to the float Infer path: both
// reduce to the same quantized codes, the same integer execute, and the
// same dequantization.
func TestServerCodesPathMatchesInfer(t *testing.T) {
	g := tensor.NewRNG(67)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	_, prog := compile(t, smallCNN(g), calib)
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{Workers: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 8; i++ {
		x := g.Uniform(0, 1, 3, 8, 8)
		want, err := srv.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		codes, err := srv.TryInferCodes([]*tensor.IntTensor{quantize(prog, x)}, time.Time{}, engine.PriNormal, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := prog.DequantizeOutput(codes[0].Data, want.Shape)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("codes path shape %v vs %v", got.Shape, want.Shape)
		}
		for j := range got.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("input %d: codes path diverges from Infer at %d: %v vs %v",
					i, j, got.Data[j], want.Data[j])
			}
		}
	}
}
