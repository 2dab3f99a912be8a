package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// ErrQueueFull is returned by TryInferCodes when a group does not fit in
// the request queue and lost victim selection: the server is
// overloaded and the caller should shed load (the HTTP layer maps it to
// 429) instead of buffering unboundedly. Under EDF scheduling a more
// urgent arrival can evict a queued request, in which case the evicted
// request receives this error instead.
var ErrQueueFull = errors.New("engine: server queue full")

// ErrDeadlineExceeded is returned when a request's deadline expired
// before a worker executed it; the sample is dropped without running.
var ErrDeadlineExceeded = errors.New("engine: request deadline exceeded")

// ErrShapeMismatch wraps rejections of mis-shaped request tensors, so
// callers (the HTTP layer) can report them as client errors — e.g. a
// request racing a hot reload that changed the model's input shape.
var ErrShapeMismatch = errors.New("engine: sample shape mismatch")

var errServerClosed = errors.New("engine: server is closed")

// ServerOptions tune the batched serving runtime.
type ServerOptions struct {
	// Workers is the number of executor-owning goroutines (default
	// GOMAXPROCS/2, min 1).
	Workers int
	// KernelThreads bounds the intra-op parallelism of each worker's
	// executors (default GOMAXPROCS/Workers, min 1). The resolved
	// Workers×KernelThreads product never exceeds GOMAXPROCS: an
	// explicitly oversubscribed config is trimmed on the kernel-thread
	// side, so concurrent workers share cores instead of each fanning
	// out to the full pool width.
	KernelThreads int
	// MaxBatch is the largest micro-batch requests are coalesced into
	// (default 8). The batcher never waits for a batch to fill: an idle
	// worker takes whatever is queued at once, so batches grow only from
	// work that arrives together or while every worker is busy.
	MaxBatch int
	// QueueSize is the request queue capacity (default 4×MaxBatch×Workers).
	QueueSize int
	// Sched selects the request queue's scheduling policy: SchedEDF
	// (the default) orders waiting requests earliest-deadline-first
	// under priority classes and closes batches deadline-driven;
	// SchedFIFO is the strict-arrival-order baseline.
	Sched SchedPolicy
	// Kernels selects the kernel registry (default DefaultKernels).
	Kernels *Registry
	// Trace, when non-nil, gives the server a span ring on the tracer:
	// workers record queue-wait and batch spans and bind their
	// executors for per-instruction spans. nil (the default) leaves
	// the hot path untraced — no ring, no clock reads.
	Trace *trace.Tracer
}

// WithDefaults returns o with unset fields resolved, so higher layers
// can see the effective queue capacity and worker count (the serve
// registry sizes its request waves by the queue capacity).
func (o ServerOptions) WithDefaults() ServerOptions { return o.withDefaults() }

func (o ServerOptions) withDefaults() ServerOptions {
	maxp := runtime.GOMAXPROCS(0)
	if o.Workers <= 0 {
		o.Workers = maxp / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.KernelThreads <= 0 {
		o.KernelThreads = maxp / o.Workers
	}
	// Cap the worker × kernel-thread product at GOMAXPROCS. Workers are
	// goroutines (the scheduler multiplexes an excess harmlessly), so the
	// trim lands on the kernel-thread side down to its floor of 1.
	for o.Workers*o.KernelThreads > maxp && o.KernelThreads > 1 {
		o.KernelThreads--
	}
	if o.KernelThreads < 1 {
		o.KernelThreads = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4 * o.MaxBatch * o.Workers
	}
	if o.Sched == "" {
		o.Sched = SchedEDF
	}
	if o.Kernels == nil {
		o.Kernels = DefaultKernels()
	}
	return o
}

// ServerStats counts serving activity; read with Stats().
type ServerStats struct {
	Requests int64 // single-sample requests served successfully
	Batches  int64 // successful batched executes
	Batched  int64 // samples that shared a batch with at least one other
	Failures int64 // requests that returned an execution error
	Rejected int64 // queue-full fast-fails and evictions, all classes
	Expired  int64 // requests whose deadline passed before execution
	// Per-class queue sheds (fast-fails plus victim evictions), summing
	// to Rejected: the signal that PriLow absorbs overload first.
	ShedHigh   int64
	ShedNormal int64
	ShedLow    int64
}

// Add accumulates other into s (for folding a drained server's final
// counters into long-lived totals).
func (s *ServerStats) Add(o ServerStats) {
	s.Requests += o.Requests
	s.Batches += o.Batches
	s.Batched += o.Batched
	s.Failures += o.Failures
	s.Rejected += o.Rejected
	s.Expired += o.Expired
	s.ShedHigh += o.ShedHigh
	s.ShedNormal += o.ShedNormal
	s.ShedLow += o.ShedLow
}

// MeanBatch returns the average samples per batched execute.
func (s ServerStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Batches)
}

// CostStats reports how the scheduler's modeled batch-execution cost
// tracks measured reality as raw sums; MeanAbsErr derives the mean
// relative error.
type CostStats struct {
	// Batches is the number of measured batch executes.
	Batches int64 `json:"batches"`
	// ModeledBatchNs is EstimateCost at MaxBatch — the modeled
	// worst-case execute the deadline-driven batcher budgets with.
	ModeledBatchNs int64 `json:"modeled_batch_ns"`
	// AbsErrMicroSum accumulates |measured−modeled|/modeled per batch
	// in microunits (1e6 = 100% error).
	AbsErrMicroSum int64 `json:"abs_err_micro_sum"`
}

// MeanAbsErr returns the mean relative modeled-vs-measured error
// (0.25 = modeled execution time off by 25% on average).
func (c CostStats) MeanAbsErr() float64 {
	if c.Batches == 0 {
		return 0
	}
	return float64(c.AbsErrMicroSum) / 1e6 / float64(c.Batches)
}

// request is the queue's unit of work: one sample's input codes
// (quantization happens at enqueue time, so the cache and batcher share
// one deterministic code path), deadline, priority class, and reply
// plumbing shared by the samples of one group.
type request struct {
	codes    *tensor.IntTensor // I64 quantized input codes, one sample
	deadline time.Time         // zero = no deadline
	class    PriorityClass
	seq      uint64 // arrival order, assigned by the queue
	reply    chan reply
	idx      int    // position in the group, echoed in the reply
	enq      int64  // tracer-relative enqueue ns (0 = not traced)
	tid      uint64 // request trace id propagated from the HTTP layer
}

type reply struct {
	idx   int
	codes *tensor.IntTensor // I64 output codes, [1, out...]
	err   error
}

// Server is the batched serving runtime: groups of samples are
// coalesced by a micro-batching queue into batched executes that run on a
// pool of workers, each owning one executor bound at MaxBatch that runs
// every batch of n ≤ MaxBatch samples in its planned arenas, so
// steady-state serving does not allocate inter-op buffers. Requests
// travel as quantized input codes end to end; the float Infer API
// quantizes on entry and dequantizes on reply with the exact boundary
// arithmetic the executor uses, so results are bit-identical to the
// pre-codes path.
type Server struct {
	prog   *Program
	sample []int // single-sample shape (no batch dim)
	opts   ServerOptions

	q        *reqQueue
	batches  chan []request
	wg       sync.WaitGroup
	batcherW sync.WaitGroup

	requests   atomic.Int64
	nBatches   atomic.Int64
	batched    atomic.Int64
	failures   atomic.Int64
	rejected   atomic.Int64
	expired    atomic.Int64
	shedHigh   atomic.Int64
	shedNormal atomic.Int64
	shedLow    atomic.Int64

	arenaBytes   atomic.Int64
	scratchBytes atomic.Int64

	// Modeled batch-execution cost per batch size (lazily filled; one
	// work-model evaluation per size per server lifetime), and the
	// measured-vs-modeled error accumulators the workers feed.
	costMu       sync.Mutex
	costNs       map[int]int64
	costErrMicro atomic.Int64
	costBatches  atomic.Int64

	// Tracing: one shared multi-writer ring for the batcher and all
	// workers (nil without a tracer); interned span names bound once.
	ring        *trace.Ring
	nmQueueWait uint32
	nmBatch     uint32
	nmBatchForm uint32

	// batchWait is always on (two clock reads per batch, not per
	// request): the time from a batch's first request to the moment a
	// worker took it — how long a formed batch waited for a free worker,
	// the signal that separates queueing from execution when a latency
	// histogram regresses. execHist and slackHist are its
	// companions on the execute side: measured batch execution time, and
	// the earliest-deadline slack remaining at dispatch.
	batchWait *trace.Hist
	execHist  *trace.Hist
	slackHist *trace.Hist

	// cold holds the traced batch span of each worker's first execute
	// at each batch size (view build, lazy kernel state, grow-only
	// scratch), whose instruction spans Explain leaves out.
	coldMu sync.Mutex
	cold   []trace.Span

	// mu guards closed and orders queue pushes before close: producers
	// hold the read side (so they can enqueue concurrently), Close takes
	// the write side.
	mu     sync.RWMutex
	closed bool
}

// NewServer validates the program against the single-sample input shape
// (e.g. [3,32,32]) and starts the batcher and worker pool.
func NewServer(p *Program, sampleShape []int, opts ServerOptions) (*Server, error) {
	opts = opts.withDefaults()
	// Validate up front: plan at batch 1 so shape errors surface here.
	if _, err := p.PlanBuffers(append([]int{1}, sampleShape...)); err != nil {
		return nil, err
	}
	if err := checkKernels(p, opts.Kernels); err != nil {
		return nil, err
	}
	s := &Server{
		prog:      p,
		sample:    append([]int(nil), sampleShape...),
		opts:      opts,
		q:         newReqQueue(opts.QueueSize, opts.Sched == SchedEDF),
		batches:   make(chan []request),
		costNs:    map[int]int64{},
		batchWait: trace.NewHist(trace.BatchWaitBucketsNs),
		execHist:  trace.NewHist(trace.OpBucketsNs),
		slackHist: trace.NewHist(trace.BatchWaitBucketsNs),
	}
	if opts.Trace != nil {
		s.ring = opts.Trace.NewRing()
		s.nmQueueWait = opts.Trace.Intern("queue_wait")
		s.nmBatch = opts.Trace.Intern("batch")
		s.nmBatchForm = opts.Trace.Intern("batch_form")
	}
	s.batcherW.Add(1)
	go s.batcher()
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

// EstimateCost returns the modeled wall-clock execution time of one
// batched execute of batch samples (clamped to 1..MaxBatch): the
// work model summed over every instruction at that batch size. The
// estimate is serial
// (intra-op parallelism would only shrink it), so the deadline-driven
// batcher errs toward closing batches early rather than blowing
// deadlines.
func (s *Server) EstimateCost(batch int) time.Duration {
	return time.Duration(s.costNsAt(batch))
}

func (s *Server) costNsAt(n int) int64 {
	n = min(max(n, 1), s.opts.MaxBatch)
	s.costMu.Lock()
	defer s.costMu.Unlock()
	if v, ok := s.costNs[n]; ok {
		return v
	}
	var v int64
	if shapes, err := s.prog.InferShapes(append([]int{n}, s.sample...)); err == nil {
		for i := range s.prog.Instrs {
			v += s.prog.instrWorkNs(i, shapes)
		}
	}
	s.costNs[n] = v
	return v
}

// Explain returns the per-instruction record of the server's program
// bound like a worker's executor, at MaxBatch with the server's kernels.
// On a traced server each row also carries its measured mean ns per
// sample over the instruction spans still in the server's ring, leaving
// out each worker's first execute at each batch size: a span covers the
// batch it ran at, which its output bytes give.
func (s *Server) Explain() ([]KernelChoice, error) {
	ex, err := NewExecutor(s.prog, append([]int{s.opts.MaxBatch}, s.sample...),
		WithKernels(s.opts.Kernels), WithMaxParallel(s.opts.KernelThreads))
	if err != nil {
		return nil, err
	}
	rows := ex.Explain()
	sums := make([]float64, len(rows))
	s.coldMu.Lock()
	cold := slices.Clone(s.cold)
	s.coldMu.Unlock()
	for _, sp := range s.ring.Snapshot() {
		if sp.Kind != trace.KindInstr || slices.ContainsFunc(cold, func(b trace.Span) bool {
			return b.TID == sp.TID && b.Start <= sp.Start && sp.Start < b.Start+b.Dur
		}) {
			continue
		}
		r := &rows[sp.A1]
		n := sp.A0 * int64(s.opts.MaxBatch) / r.Bytes
		sums[sp.A1] += float64(sp.Dur) / float64(n)
		r.Spans++
	}
	for i := range rows {
		if rows[i].Spans > 0 {
			rows[i].MeasuredNs = sums[i] / float64(rows[i].Spans)
		}
	}
	return rows, nil
}

// batcher coalesces queued requests, work-conserving: while the queue
// holds requests the batch fills from it, and once the queue is empty an
// idle worker takes the batch at once — the batch keeps growing from new
// arrivals only while every worker is busy. A batch that reaches
// MaxBatch, or — under SchedEDF — whose next request would, per
// EstimateCost, make it miss its earliest member deadline, closes and
// waits for the next free worker. batches is unbuffered, so "a worker
// took it" is exactly "a worker was idle".
func (s *Server) batcher() {
	defer s.batcherW.Done()
	defer close(s.batches)
	edf := s.opts.Sched == SchedEDF
next:
	for {
		first, ok := s.q.waitPop()
		if !ok {
			return
		}
		t0 := time.Now()
		batch := append(make([]request, 0, s.opts.MaxBatch), first)
	fill:
		for len(batch) < s.opts.MaxBatch {
			var accept func(request) bool
			if edf {
				b := batch // capture current batch for the predicate
				accept = func(r request) bool {
					ed := earliestDeadline(b, r.deadline)
					if ed.IsZero() {
						return true
					}
					return time.Until(ed) >= s.EstimateCost(len(b)+1)
				}
			}
			r, st := s.q.tryPop(accept)
			switch st {
			case popOK:
				batch = append(batch, r)
				continue
			case popRejected:
				// Admitting the head request would blow a deadline the
				// current batch can still meet: close now.
				break fill
			}
			// Queue empty: a parked worker takes the batch now; while every
			// worker is busy, new arrivals keep joining it.
			select {
			case s.batches <- batch:
				s.dispatched(len(batch), t0)
				continue next
			case <-s.q.notEmpty:
			}
		}
		s.batches <- batch
		s.dispatched(len(batch), t0)
	}
}

// dispatched records how long a batch of n that a worker just took
// waited, from its first request to hand-off: always into the batch-wait
// histogram, and as a KindBatchForm span when tracing is armed. The
// worker owns the batch from the hand-off on, so only its size is read.
func (s *Server) dispatched(n int, t0 time.Time) {
	wait := time.Since(t0).Nanoseconds()
	s.batchWait.Observe(wait)
	if s.ring.Active() {
		s.ring.Record(trace.Span{
			Start: s.ring.Now() - wait, Dur: wait, Name: s.nmBatchForm,
			Kind: trace.KindBatchForm, TID: batcherLane, A0: int64(n),
		})
	}
}

// batcherLane is the Chrome-trace lane the batcher's spans render on,
// clear of the worker lanes (worker w records on lane w).
const batcherLane = 999

// worker owns one executor bound at MaxBatch, bound on the first batch,
// and runs each batch of n samples on the executor's n-sample view. w
// is the worker index — the trace lane its spans and its executor's
// spans are tagged with.
func (s *Server) worker(w int) {
	defer s.wg.Done()
	var ex *Executor
	// Per batch size n: the input and output code headers over the
	// first n samples of xBuf/yBuf, and whether n has run yet.
	xCodes := make([]*tensor.IntTensor, s.opts.MaxBatch+1)
	yCodes := make([]*tensor.IntTensor, s.opts.MaxBatch+1)
	var xBuf, yBuf *tensor.IntTensor
	var scratch int64 // this worker's share of s.scratchBytes
	sampleN := tensor.Numel(s.sample)
	for batch := range s.batches {
		// Record the earliest-deadline slack left at dispatch, clamped at
		// zero (the deadline-attainment signal), and drop requests whose
		// deadline passed while queued: replying ErrDeadlineExceeded
		// without executing is what keeps latency bounded under overload
		// instead of serving stale work.
		if ed := earliestDeadline(batch, time.Time{}); !ed.IsZero() {
			now := time.Now()
			s.slackHist.Observe(max(ed.Sub(now).Nanoseconds(), 0))
			live := batch[:0]
			for _, r := range batch {
				if !r.deadline.IsZero() && now.After(r.deadline) {
					s.expired.Add(1)
					r.reply <- reply{idx: r.idx, err: ErrDeadlineExceeded}
					continue
				}
				live = append(live, r)
			}
			batch = live
			if len(batch) == 0 {
				continue
			}
		}
		n := len(batch)
		if ex == nil {
			var err error
			ex, err = NewExecutor(s.prog, append([]int{s.opts.MaxBatch}, s.sample...),
				WithKernels(s.opts.Kernels), WithMaxParallel(s.opts.KernelThreads),
				WithTraceRing(s.ring, int32(w)))
			if err != nil {
				for _, r := range batch {
					r.reply <- reply{idx: r.idx, err: err}
				}
				continue
			}
			xBuf = tensor.NewInt(ex.InShape()...)
			yBuf = tensor.NewInt(ex.OutShape()...)
			s.arenaBytes.Add(ex.Plan().ArenaBytes)
		}
		first := xCodes[n] == nil
		if first {
			outN := yBuf.Numel() / s.opts.MaxBatch
			xCodes[n] = tensor.IntFromSlice(xBuf.Data[:n*sampleN], append([]int{n}, s.sample...)...)
			yCodes[n] = tensor.IntFromSlice(yBuf.Data[:n*outN], append([]int{n}, yBuf.Shape[1:]...)...)
		}
		xc, yc := xCodes[n], yCodes[n]
		for i, r := range batch {
			copy(xc.Data[i*sampleN:(i+1)*sampleN], r.codes.Data)
		}
		var bStart int64
		traced := s.ring.Active()
		if traced {
			// Close each request's queue-wait span now that its batch is
			// about to execute; the executor's instruction spans then
			// nest inside the batch span that follows.
			bStart = s.ring.Now()
			for _, r := range batch {
				if r.enq > 0 {
					s.ring.Record(trace.Span{
						Start: r.enq, Dur: bStart - r.enq, Name: s.nmQueueWait,
						Kind: trace.KindQueueWait, TID: int32(w), ID: r.tid,
						A0: int64(n),
					})
				}
			}
		}
		t0 := time.Now()
		_, err := ex.ExecuteCodes(xc, yc)
		execNs := time.Since(t0).Nanoseconds()
		s.execHist.Observe(execNs)
		if mod := s.costNsAt(n); mod > 0 {
			errMicro := (execNs - mod) * 1e6 / mod
			if errMicro < 0 {
				errMicro = -errMicro
			}
			s.costErrMicro.Add(errMicro)
			s.costBatches.Add(1)
		}
		if traced {
			b := trace.Span{
				Start: bStart, Dur: s.ring.Now() - bStart, Name: s.nmBatch,
				Kind: trace.KindBatch, TID: int32(w),
				A0: int64(n), A1: int64(n),
			}
			s.ring.Record(b)
			if first {
				s.coldMu.Lock()
				s.cold = append(s.cold, b)
				s.coldMu.Unlock()
			}
		}
		if first {
			// Re-sample scratch the first time each batch size runs: the
			// grow-only buffers the unprepacked kernels claim reach their
			// steady state only once a size has executed.
			cur := ex.ScratchBytes()
			s.scratchBytes.Add(cur - scratch)
			scratch = cur
		}
		// Count before replying: a client that reads Stats right after
		// its Infer returns must see this batch. Failed batches count as
		// failures, not served requests.
		if err != nil {
			s.failures.Add(int64(n))
		} else {
			s.requests.Add(int64(n))
			s.nBatches.Add(1)
			if n > 1 {
				s.batched.Add(int64(n))
			}
		}
		outN := yc.Numel() / n
		for i, r := range batch {
			if err != nil {
				r.reply <- reply{idx: r.idx, err: err}
				continue
			}
			yi := tensor.NewInt(append([]int{1}, yc.Shape[1:]...)...)
			copy(yi.Data, yc.Data[i*outN:(i+1)*outN])
			r.reply <- reply{idx: r.idx, codes: yi}
		}
	}
}

// checkShape validates a request shape against the server's sample
// shape, accepting the documented [1, sample...] batch-of-one form.
// Comparing only element counts is not enough: a [32,32,3] tensor has
// the same Numel as a [3,32,32] model input but a different layout, and
// accepting it would silently misinfer.
func (s *Server) checkShape(shape []int) error {
	sh := shape
	if len(sh) == len(s.sample)+1 && sh[0] == 1 {
		sh = sh[1:]
	}
	if len(sh) != len(s.sample) {
		return fmt.Errorf("%w: sample shape %v, server expects %v", ErrShapeMismatch, shape, s.sample)
	}
	for i := range sh {
		if sh[i] != s.sample[i] {
			return fmt.Errorf("%w: sample shape %v, server expects %v", ErrShapeMismatch, shape, s.sample)
		}
	}
	return nil
}

// Infer serves one sample (shape = sampleShape, or [1, sampleShape...])
// and blocks until its logits are ready, waiting for queue space if the
// server is saturated.
func (s *Server) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	if err := s.checkShape(x.Shape); err != nil {
		return nil, err
	}
	codes := tensor.NewInt(x.Shape...)
	s.prog.InQuant.QuantizeTo(codes, x)
	out, err := s.inferCodes([]*tensor.IntTensor{codes}, time.Time{}, PriNormal, true, 0)
	if err != nil {
		return nil, err
	}
	return s.prog.DequantizeOutput(out[0].Data, out[0].Shape), nil
}

// TryInferCodes serves a group of samples already quantized to input
// codes (I64, each shaped sampleShape or [1, sampleShape...]), returning
// their output codes in order. This is the serving cache's entry point:
// the caller quantized once to compute the cache keys, and on a miss the
// exact same codes execute here — so a later hit is bit-identical by
// construction. The group enters the queue as one unit, so on an idle
// server a group of at most MaxBatch runs as one batch. It fast-fails
// with ErrQueueFull instead of blocking when the group does not fit,
// leaving the queue untouched, and a non-zero deadline makes workers
// drop the samples unexecuted (ErrDeadlineExceeded) once it expires.
// class orders the group against other queued work and picks shed
// victims under overload. A non-zero tid is recorded on the samples'
// queue-wait spans, stitching the engine timeline to the HTTP request
// span that owns them.
func (s *Server) TryInferCodes(codes []*tensor.IntTensor, deadline time.Time, class PriorityClass, tid uint64) ([]*tensor.IntTensor, error) {
	for _, c := range codes {
		if err := s.checkShape(c.Shape); err != nil {
			return nil, err
		}
		if c.DType != tensor.I64 || c.Data == nil {
			return nil, fmt.Errorf("engine: TryInferCodes needs I64 code tensors")
		}
	}
	return s.inferCodes(codes, deadline, class, false, tid)
}

// inferCodes enqueues codes as one group sharing one reply channel and
// waits for every member. A blocking push (Infer's group of one) waits
// for queue space instead of shedding.
func (s *Server) inferCodes(codes []*tensor.IntTensor, deadline time.Time, class PriorityClass, block bool, tid uint64) ([]*tensor.IntTensor, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, errServerClosed
	}
	var enq int64
	if s.ring.Active() {
		enq = s.ring.Now()
	}
	ch := make(chan reply, len(codes))
	group := make([]request, len(codes))
	for i, c := range codes {
		group[i] = request{codes: c, deadline: deadline, class: class, reply: ch, idx: i, enq: enq, tid: tid}
	}
	victims, err := s.q.push(group, block)
	s.mu.RUnlock()
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.countShed(class, len(group))
		}
		return nil, err
	}
	for _, v := range victims {
		s.countShed(v.class, 1)
		v.reply <- reply{idx: v.idx, err: ErrQueueFull}
	}
	out := make([]*tensor.IntTensor, len(codes))
	for range codes {
		rep := <-ch
		if rep.err != nil && err == nil {
			err = rep.err
		}
		out[rep.idx] = rep.codes
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *Server) countShed(class PriorityClass, n int) {
	s.rejected.Add(int64(n))
	switch {
	case class < PriNormal:
		s.shedHigh.Add(int64(n))
	case class > PriNormal:
		s.shedLow.Add(int64(n))
	default:
		s.shedNormal.Add(int64(n))
	}
}

// SampleShape returns the single-sample input shape the server accepts.
func (s *Server) SampleShape() []int { return append([]int(nil), s.sample...) }

// QueueDepth samples the number of requests currently waiting in the
// batcher queue — a point-in-time gauge, exact only at the instant of
// the read.
func (s *Server) QueueDepth() int { return s.q.depth() }

// BatchWait snapshots the always-on batch-wait histogram: how long each
// formed batch waited for a free worker, from its first request to
// hand-off. An idle server hands a batch over at once, so mass above
// the histogram's first bound means every worker was busy.
func (s *Server) BatchWait() trace.HistSnapshot { return s.batchWait.Snapshot() }

// BatchExec snapshots the always-on batch-execution-time histogram —
// the measured side of the cost model's prediction.
func (s *Server) BatchExec() trace.HistSnapshot { return s.execHist.Snapshot() }

// BatchSlack snapshots the dispatch-time earliest-deadline slack
// histogram (deadlined batches only, clamped at zero): how much margin
// the deadline-driven batcher left for execution.
func (s *Server) BatchSlack() trace.HistSnapshot { return s.slackHist.Snapshot() }

// CostStats reports the modeled-vs-measured batch execution record.
func (s *Server) CostStats() CostStats {
	return CostStats{
		Batches:        s.costBatches.Load(),
		ModeledBatchNs: s.costNsAt(s.opts.MaxBatch),
		AbsErrMicroSum: s.costErrMicro.Load(),
	}
}

// ServerMemStats reports the memory a server's bound executors hold:
// planned per-dtype arenas and kernel scratch, summed across the
// workers' executors — one per worker that has run a batch, planned at
// MaxBatch. With typed storage the arena share is byte-accurate per
// buffer dtype. Scratch is re-sampled the first time each batch size
// runs, so it is the executors' steady-state footprint for the sizes
// served so far.
type ServerMemStats struct {
	ArenaBytes   int64 `json:"arena_bytes"`
	ScratchBytes int64 `json:"scratch_bytes"`
	// WeightSparsity / SkipFraction are the bound program's sparsity
	// stats: the exactly-zero weight fraction, and the modeled MAC share
	// the sparsity-aware kernels skip (0 for a dense checkpoint).
	WeightSparsity float64 `json:"weight_sparsity,omitempty"`
	SkipFraction   float64 `json:"skip_fraction,omitempty"`
}

// MemStats returns a snapshot of the executor memory footprint.
func (s *Server) MemStats() ServerMemStats {
	ws, sf := s.prog.SparsityStats()
	return ServerMemStats{
		ArenaBytes:     s.arenaBytes.Load(),
		ScratchBytes:   s.scratchBytes.Load(),
		WeightSparsity: ws,
		SkipFraction:   sf,
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:   s.requests.Load(),
		Batches:    s.nBatches.Load(),
		Batched:    s.batched.Load(),
		Failures:   s.failures.Load(),
		Rejected:   s.rejected.Load(),
		Expired:    s.expired.Load(),
		ShedHigh:   s.shedHigh.Load(),
		ShedNormal: s.shedNormal.Load(),
		ShedLow:    s.shedLow.Load(),
	}
}

// Close drains in-flight requests and stops the workers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.q.close()
	s.mu.Unlock()
	s.batcherW.Wait()
	s.wg.Wait()
}
