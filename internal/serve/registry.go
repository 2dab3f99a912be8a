// Package serve is the network-facing multi-model serving layer on top
// of internal/engine: a registry of named, versioned models loaded from
// exported checkpoints, each backed by one engine.Server whose bounded
// EDF queue is the model's only admission point, with atomic hot
// reload, per-request deadlines, an HTTP/JSON API and Prometheus-style
// metrics.
//
// The invariant inherited from the engine holds end to end: every
// response served over HTTP is bit-identical to IntModel.Forward of the
// checkpoint version that served it.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// ErrNotFound is returned for requests naming an unknown model.
var ErrNotFound = errors.New("serve: model not found")

// ErrClosed is returned once the registry has shut down.
var ErrClosed = errors.New("serve: registry is closed")

// newServer builds a model version's engine server (a variable so a test
// can make the bind fail the way a corrupt program would).
var newServer = engine.NewServer

// Options configure how the registry builds and guards model entries.
type Options struct {
	// Engine tunes each model's batching runtime. Its queue capacity
	// (QueueSize) is the model's admission bound: a group of cache
	// misses that does not fit is refused whole with engine.ErrQueueFull
	// (HTTP 429), and Workers executors share the one queue and the one
	// *engine.Program with its prepacked-kernel cache.
	Engine engine.ServerOptions
	// DefaultDeadline is the deadline the HTTP predict handler applies
	// to requests that carry no ?deadline_ms= (0 = none).
	DefaultDeadline time.Duration
	// Trace, when non-nil, gives every model entry its own armed
	// span Tracer sized by the config: the engine server records
	// instruction/batch spans, the HTTP layer records
	// request/fanout spans, and /debug/trace?model=X snapshots them as
	// Chrome trace-event JSON. nil keeps the engine hot path at its
	// untraced cost (a nil-ring branch per execute).
	Trace *trace.Config
	// CacheCapacity bounds each model's content-addressed inference
	// cache in entries (default 1024; negative disables caching). Hits
	// are bit-identical to recompute by construction — the key covers
	// the program's content fingerprint and the full quantized input
	// codes — and bypass the queue and batching entirely.
	CacheCapacity int
	// CacheHitFloor is the observed hit rate below which a model's
	// cache stops admitting inserts (default 0.02; negative disables
	// the floor). Measured over CacheWindow lookups with exponential
	// backoff, so models whose traffic never repeats shed the caching
	// overhead instead of churning entries.
	CacheHitFloor float64
	// CacheWindow is the admission-measurement window in lookups
	// (default 512).
	CacheWindow int
}

func (o Options) withDefaults() Options {
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 1024
	}
	if o.CacheHitFloor == 0 {
		o.CacheHitFloor = 0.02
	} else if o.CacheHitFloor < 0 {
		o.CacheHitFloor = 0
	}
	if o.CacheWindow <= 0 {
		o.CacheWindow = 512
	}
	return o
}

// Model is one immutable loaded checkpoint version: a program plus the
// engine server that runs it. It is reference-counted; the registry
// holds one reference until the version is retired by a reload, and
// every in-flight request holds one, so a hot swap never closes a
// server out from under a request.
type Model struct {
	Name    string
	Version int
	Sample  []int

	prog *engine.Program
	fp   uint64 // program content fingerprint: the cache-key version
	srv  *engine.Server

	refs      atomic.Int64
	onDrained func(engine.ServerStats)
}

func (m *Model) acquire() bool {
	for {
		n := m.refs.Load()
		if n <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (m *Model) release() {
	if m.refs.Add(-1) == 0 {
		m.srv.Close()
		m.onDrained(m.srv.Stats())
	}
}

// entry is the long-lived per-name state: the current model version,
// its tracer and cache, and counters folded in from drained versions.
type entry struct {
	name    string
	cur     atomic.Pointer[Model]
	loadMu  sync.Mutex // serializes reloads of this name
	version atomic.Int64

	// tracer and httpRing are set once at entry creation (nil when the
	// registry was built without Options.Trace) and immutable after, so
	// every serving path may read them without synchronization. The
	// tracer survives hot reloads: a new version's server records into
	// the same rings, keeping one timeline per model name.
	tracer      *trace.Tracer
	httpRing    *trace.Ring
	nmAdmission uint32

	// cache is the entry's content-addressed inference cache (nil when
	// disabled). It survives hot reloads — keys embed the program
	// fingerprint, so a content-changing reload makes old entries
	// unreachable (Load flushes them eagerly), while a content-identical
	// reload keeps the cache warm.
	cache *modelCache

	retiredMu sync.Mutex
	retired   engine.ServerStats
}

func (e *entry) absorb(st engine.ServerStats) {
	e.retiredMu.Lock()
	e.retired.Add(st)
	e.retiredMu.Unlock()
}

// Registry maps model names to versioned serving entries.
type Registry struct {
	opts Options

	// queueSize is each model's resolved queue capacity, and so the
	// widest group PredictBatch can admit: the HTTP layer serves wider
	// requests in waves of this many samples, so they never 429 against
	// themselves on an idle server.
	queueSize int

	mu      sync.RWMutex
	entries map[string]*entry
	closed  bool

	wg sync.WaitGroup // model versions not yet drained
}

// NewRegistry builds an empty registry.
func NewRegistry(opts Options) *Registry {
	opts = opts.withDefaults()
	return &Registry{opts: opts, queueSize: opts.Engine.WithDefaults().QueueSize, entries: map[string]*entry{}}
}

// Load installs a checkpoint under name, creating the entry or — if the
// name already serves — hot-swapping the new version in atomically. The
// swapped-out version keeps serving its in-flight requests and its
// server is closed only once the last of them finishes, so a reload
// under traffic drops nothing. sample overrides the single-sample input
// shape; nil uses the shape recorded in the checkpoint's program
// section (pre-PR-3 checkpoints have none and require the override).
// An unfused checkpoint is fused on load: the registry always serves
// the fused form.
func (r *Registry) Load(name string, ck *export.Checkpoint, sample []int) (ModelInfo, error) {
	if name == "" {
		return ModelInfo{}, fmt.Errorf("serve: empty model name")
	}
	prog, err := engine.FromCheckpoint(ck)
	if err != nil {
		return ModelInfo{}, err
	}
	if prog.OptLevel < engine.OptFuse {
		prog = engine.Optimize(prog, engine.OptFuse)
	}
	if sample == nil {
		sample = prog.InShape
	}
	if len(sample) == 0 {
		return ModelInfo{}, fmt.Errorf("serve: checkpoint for %q records no input shape; pass one explicitly", name)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ModelInfo{}, ErrClosed
	}
	e, ok := r.entries[name]
	if !ok {
		e = &entry{name: name}
		e.cache = newModelCache(r.opts.CacheCapacity, r.opts.CacheHitFloor, int64(r.opts.CacheWindow))
		if r.opts.Trace != nil {
			e.tracer = trace.New(*r.opts.Trace)
			e.tracer.SetEnabled(true)
			e.httpRing = e.tracer.NewRing()
			e.nmAdmission = e.tracer.Intern("admission_reject")
		}
		r.entries[name] = e
	}
	r.wg.Add(1) // for the model built below; released in onDrained
	r.mu.Unlock()
	// Until the model is published its onDrained cannot run, so release
	// the count here on every other exit, a bind-time panic included:
	// otherwise Close would wait for it forever.
	published := false
	defer func() {
		if !published {
			r.wg.Done()
		}
	}()

	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	// Re-check under loadMu: Close sets closed before sweeping entries
	// (taking each loadMu), so either we see closed here and abort, or
	// Close's sweep runs after our publish and retires the new model.
	// Without this, a Load that passed the first check while Close swept
	// would publish a version nothing ever releases, deadlocking Close.
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return ModelInfo{}, ErrClosed
	}
	fp := prog.Fingerprint()
	eng := r.opts.Engine
	eng.Trace = e.tracer
	srv, err := newServer(prog, sample, eng)
	if err != nil {
		return ModelInfo{}, err
	}
	m := &Model{
		Name:    name,
		Version: int(e.version.Add(1)),
		Sample:  append([]int(nil), sample...),
		prog:    prog,
		fp:      fp,
		srv:     srv,
	}
	m.onDrained = func(st engine.ServerStats) {
		e.absorb(st)
		r.wg.Done()
	}
	m.refs.Store(1)
	published = true
	if old := e.cur.Swap(m); old != nil {
		if old.fp != m.fp {
			// Content changed: the old version's cache entries are already
			// unreachable (keys embed the fingerprint); flush to free the
			// memory now rather than waiting for LRU churn.
			e.cache.flush()
		}
		old.release() // drop the registry reference; drains asynchronously
	}
	return r.info(e, m), nil
}

func (r *Registry) lookup(name string) *entry {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	return e
}

// PredictResult is one served sample: logits, the checkpoint version
// that computed them, and whether they came from the inference cache
// (bit-identical to recompute either way).
type PredictResult struct {
	Y       *tensor.Tensor
	Version int
	Cached  bool
}

// Predict serves one sample through name's current version: PredictBatch
// with a group of one.
func (r *Registry) Predict(name string, x *tensor.Tensor, deadline time.Time, class engine.PriorityClass, tid uint64) (PredictResult, error) {
	res, err := r.PredictBatch(name, []*tensor.Tensor{x}, deadline, class, tid)
	if err != nil {
		return PredictResult{}, err
	}
	return res[0], nil
}

// PredictBatch serves samples through name's current version: quantize
// each, consult the content-addressed cache (hits are answered at once,
// bypassing the queue and the batcher), then enqueue the misses as one
// group under the request's priority class — on an idle server, one
// batch. The model's queue is its only admission point: a group that
// does not fit is refused whole with engine.ErrQueueFull. Samples travel
// as quantized codes end to end, so a cache hit and a recompute are
// bit-identical by construction. A non-zero trace id tid is stitched
// into the server's queue-wait spans, and a refused group records a
// zero-duration admission span against it.
func (r *Registry) PredictBatch(name string, xs []*tensor.Tensor, deadline time.Time, class engine.PriorityClass, tid uint64) ([]PredictResult, error) {
	e := r.lookup(name)
	if e == nil {
		return nil, ErrNotFound
	}
	m := e.current()
	if m == nil {
		return nil, ErrNotFound
	}
	defer m.release()
	res := make([]PredictResult, len(xs))
	var codes []*tensor.IntTensor // the misses' input codes,
	var keys []uint64             // their cache keys,
	var miss []int                // and their positions in xs
	for i, x := range xs {
		if err := checkSample(x.Shape, m.Sample); err != nil {
			return nil, err
		}
		// Quantize up front: the codes are both the cache key material and
		// — on a miss — exactly what executes, which is what makes a later
		// hit provably identical to the recompute it replaced.
		c := tensor.NewInt(x.Shape...)
		m.prog.InQuant.QuantizeTo(c, x)
		key := cacheKey(m.fp, c.Data)
		if out, shape, ok := e.cache.get(key, c.Data); ok {
			res[i] = PredictResult{Y: m.prog.DequantizeOutput(out, shape), Version: m.Version, Cached: true}
			continue
		}
		codes, keys, miss = append(codes, c), append(keys, key), append(miss, i)
	}
	if len(codes) == 0 {
		return res, nil
	}
	outs, err := m.srv.TryInferCodes(codes, deadline, class, tid)
	if err != nil {
		if ring := e.httpRing; tid != 0 && ring.Active() && errors.Is(err, engine.ErrQueueFull) {
			ring.Record(trace.Span{Start: ring.Now(), Name: e.nmAdmission,
				Kind: trace.KindAdmission, TID: httpLane, ID: tid, A0: int64(len(codes))})
		}
		return nil, err
	}
	for j, out := range outs {
		// A put racing a hot reload is harmless: the key embeds the
		// fingerprint this result was computed under, so a new version
		// never reads it and LRU churn reclaims the slot.
		e.cache.put(keys[j], codes[j].Data, out.Data, out.Shape)
		res[miss[j]] = PredictResult{Y: m.prog.DequantizeOutput(out.Data, out.Shape), Version: m.Version}
	}
	return res, nil
}

// current returns e's serving version with a reference held (the caller
// releases it), or nil once the name is removed.
func (e *entry) current() *Model {
	for {
		m := e.cur.Load()
		if m == nil || m.acquire() {
			return m
		}
		// Retired between the pointer load and the ref grab: the swap
		// that retired it already published a successor.
	}
}

// checkSample validates a request tensor shape against the model's
// single-sample shape, accepting the [1, sample...] batch-of-one form —
// the serve-side mirror of the engine server's own check, needed here
// because quantization and cache lookup run before the server sees the
// request.
func checkSample(shape, sample []int) error {
	sh := shape
	if len(sh) == len(sample)+1 && sh[0] == 1 {
		sh = sh[1:]
	}
	ok := len(sh) == len(sample)
	for i := 0; ok && i < len(sh); i++ {
		ok = sh[i] == sample[i]
	}
	if !ok {
		return fmt.Errorf("%w: sample shape %v, model expects %v", engine.ErrShapeMismatch, shape, sample)
	}
	return nil
}

// Tracer returns name's span tracer (nil when the model is unknown or
// the registry was built without tracing).
func (r *Registry) Tracer(name string) *trace.Tracer {
	if e := r.lookup(name); e != nil {
		return e.tracer
	}
	return nil
}

// TraceRing returns name's HTTP-layer span ring (nil-safe: recording
// guards on Active).
func (r *Registry) TraceRing(name string) *trace.Ring {
	if e := r.lookup(name); e != nil {
		return e.httpRing
	}
	return nil
}

// Explanation is the per-instruction record of a model's serving
// version, with shapes at the server's MaxBatch. Its measured columns
// are filled only when the registry traces.
type Explanation struct {
	Model   string                `json:"model"`
	Version int                   `json:"version"`
	Instrs  []engine.KernelChoice `json:"instrs"`
}

// Explain returns name's per-instruction record (engine.Server.Explain).
func (r *Registry) Explain(name string) (Explanation, error) {
	e := r.lookup(name)
	if e == nil {
		return Explanation{}, ErrNotFound
	}
	m := e.current()
	if m == nil {
		return Explanation{}, ErrNotFound
	}
	defer m.release()
	rows, err := m.srv.Explain()
	if err != nil {
		return Explanation{}, err
	}
	return Explanation{Model: name, Version: m.Version, Instrs: rows}, nil
}

// SampleShape reports the input shape name currently expects.
func (r *Registry) SampleShape(name string) ([]int, error) {
	e := r.lookup(name)
	if e == nil {
		return nil, ErrNotFound
	}
	m := e.cur.Load()
	if m == nil {
		return nil, ErrNotFound
	}
	return append([]int(nil), m.Sample...), nil
}

// ModelInfo is the listing/reporting view of one model entry.
type ModelInfo struct {
	Name    string             `json:"name"`
	Version int                `json:"version"`
	Sample  []int              `json:"sample_shape"`
	Stats   engine.ServerStats `json:"stats"`
	// Mem is the current version's executor memory footprint (planned
	// per-dtype arenas + kernel scratch across its workers).
	Mem engine.ServerMemStats `json:"mem"`
	// QueueDepth is the model's queue length at the time the info was
	// taken.
	QueueDepth int `json:"queue_depth"`
	// BatchWait is the always-on histogram of how long each formed batch
	// waited for a free worker.
	BatchWait trace.HistSnapshot `json:"batch_wait"`
	// BatchExec is the measured batch-execution-time histogram — the
	// measured side of the scheduler's cost model.
	BatchExec trace.HistSnapshot `json:"batch_exec"`
	// BatchSlack is the dispatch-time earliest-deadline slack histogram
	// (deadlined batches only).
	BatchSlack trace.HistSnapshot `json:"batch_slack"`
	// Cost is the current version's modeled-vs-measured batch execution
	// record.
	Cost engine.CostStats `json:"cost"`
	// Cache is the entry's inference-cache snapshot (zero capacity when
	// caching is disabled).
	Cache CacheStats `json:"cache"`
	// Fingerprint is the serving program's content fingerprint (the
	// cache-key version component), hex-encoded.
	Fingerprint string `json:"fingerprint"`
}

func (r *Registry) info(e *entry, m *Model) ModelInfo {
	return ModelInfo{
		Name:        e.name,
		Version:     m.Version,
		Sample:      append([]int(nil), m.Sample...),
		Stats:       e.engineStats(m),
		Mem:         m.srv.MemStats(),
		QueueDepth:  m.srv.QueueDepth(),
		BatchWait:   m.srv.BatchWait(),
		BatchExec:   m.srv.BatchExec(),
		BatchSlack:  m.srv.BatchSlack(),
		Cost:        m.srv.CostStats(),
		Cache:       e.cache.stats(),
		Fingerprint: fmt.Sprintf("%016x", m.fp),
	}
}

// engineStats folds drained-version totals into the current version's
// counters.
func (e *entry) engineStats(m *Model) engine.ServerStats {
	e.retiredMu.Lock()
	st := e.retired
	e.retiredMu.Unlock()
	st.Add(m.srv.Stats())
	return st
}

// Models lists all entries sorted by name.
func (r *Registry) Models() []ModelInfo {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	var out []ModelInfo
	for _, e := range entries {
		m := e.cur.Load()
		if m == nil {
			continue
		}
		out = append(out, r.info(e, m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Remove retires name: the current version drains and closes, and
// further requests return ErrNotFound.
func (r *Registry) Remove(name string) error {
	e := r.lookup(name)
	if e == nil {
		return ErrNotFound
	}
	e.loadMu.Lock()
	m := e.cur.Swap(nil)
	e.loadMu.Unlock()
	if m == nil {
		return ErrNotFound
	}
	m.release()
	return nil
}

// Close retires every model and blocks until all versions — including
// ones already retired by reloads — have drained their in-flight
// requests and closed their servers.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.loadMu.Lock()
		m := e.cur.Swap(nil)
		e.loadMu.Unlock()
		if m != nil {
			m.release()
		}
	}
	r.wg.Wait()
}
