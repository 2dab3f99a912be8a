package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"torch2chip/internal/trace"
)

// Request results counted per model by the HTTP layer.
const (
	ResultOK       = "ok"       // 200, logits returned
	ResultRejected = "rejected" // 429, shed by the full queue
	ResultExpired  = "expired"  // 504, deadline passed before execution
	ResultError    = "error"    // 500, execution failure
	ResultInvalid  = "invalid"  // 400, malformed payload
)

var allResults = []string{ResultOK, ResultRejected, ResultExpired, ResultError, ResultInvalid}

// latencyResults are the results that get a latency histogram: requests
// that reached the serving path. Rejections and malformed payloads fail
// before any meaningful latency accrues, so histograms for them would
// only blur the percentiles.
var latencyResults = []string{ResultOK, ResultExpired, ResultError}

// latencyBucketsNs are the histogram upper bounds (100µs … 10s,
// roughly 1-2.5-5 per decade), exposed in seconds in the Prometheus
// text format; an implicit +Inf bucket follows.
var latencyBucketsNs = []int64{
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000,
	10_000_000_000,
}

// histogram is a fixed-bucket cumulative latency histogram with atomic
// counters (per-bucket counts are non-cumulative internally and summed
// at exposition time). The last bucket is the implicit +Inf overflow.
type histogram struct {
	buckets []atomic.Int64 // len(latencyBucketsNs)+1
	sumNs   atomic.Int64
	count   atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Int64, len(latencyBucketsNs)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	i := sort.Search(len(latencyBucketsNs), func(i int) bool { return ns <= latencyBucketsNs[i] })
	h.buckets[i].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// modelMetrics is the HTTP-side per-model record: result counters and
// predict-latency histograms keyed by result (ok / expired / error), so
// timeout and failure latency is visible instead of only the happy
// path.
type modelMetrics struct {
	results map[string]*atomic.Int64
	latency map[string]*histogram
}

func newModelMetrics() *modelMetrics {
	mm := &modelMetrics{results: map[string]*atomic.Int64{}, latency: map[string]*histogram{}}
	for _, res := range allResults {
		mm.results[res] = &atomic.Int64{}
	}
	for _, res := range latencyResults {
		mm.latency[res] = newHistogram()
	}
	return mm
}

// Metrics aggregates per-model HTTP serving counters. The engine-side
// counters (batches, coalescing, queue rejects) live in the registry
// and are joined in at exposition time by the handler. Requests naming
// unknown models share one unlabeled counter: per-name entries keyed by
// attacker-chosen URL segments would grow the map (and every scrape)
// without bound.
type Metrics struct {
	mu      sync.RWMutex
	models  map[string]*modelMetrics
	unknown atomic.Int64
}

// ObserveUnknown counts a request naming a model that is not loaded.
func (m *Metrics) ObserveUnknown() { m.unknown.Add(1) }

// NewMetrics builds an empty metrics store.
func NewMetrics() *Metrics { return &Metrics{models: map[string]*modelMetrics{}} }

func (m *Metrics) model(name string) *modelMetrics {
	m.mu.RLock()
	mm := m.models[name]
	m.mu.RUnlock()
	if mm != nil {
		return mm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if mm = m.models[name]; mm == nil {
		mm = newModelMetrics()
		m.models[name] = mm
	}
	return mm
}

// Observe records one predict request's result and latency. Latency
// feeds the result's histogram when it has one (ok, expired, error).
func (m *Metrics) Observe(model, result string, d time.Duration) {
	mm := m.model(model)
	if c, ok := mm.results[result]; ok {
		c.Add(1)
	}
	if h, ok := mm.latency[result]; ok {
		h.observe(d)
	}
}

// WriteText emits the Prometheus text exposition (format 0.0.4) for the
// HTTP-side counters plus the registry's engine-level stats.
func (m *Metrics) WriteText(w io.Writer, reg *Registry) {
	m.mu.RLock()
	names := make([]string, 0, len(m.models))
	for n := range m.models {
		names = append(names, n)
	}
	m.mu.RUnlock()
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP t2c_requests_unknown_total Predict requests naming a model that is not loaded.\n")
	fmt.Fprintf(w, "# TYPE t2c_requests_unknown_total counter\n")
	fmt.Fprintf(w, "t2c_requests_unknown_total %d\n", m.unknown.Load())

	fmt.Fprintf(w, "# HELP t2c_requests_total Predict requests by model and result.\n")
	fmt.Fprintf(w, "# TYPE t2c_requests_total counter\n")
	for _, n := range names {
		mm := m.model(n)
		for _, res := range allResults {
			fmt.Fprintf(w, "t2c_requests_total{model=%q,result=%q} %d\n", n, res, mm.results[res].Load())
		}
	}

	fmt.Fprintf(w, "# HELP t2c_request_latency_seconds Predict latency by model and result.\n")
	fmt.Fprintf(w, "# TYPE t2c_request_latency_seconds histogram\n")
	for _, n := range names {
		mm := m.model(n)
		for _, res := range latencyResults {
			h := mm.latency[res]
			labels := fmt.Sprintf("model=%q,result=%q", n, res)
			cum := int64(0)
			for i, ub := range latencyBucketsNs {
				cum += h.buckets[i].Load()
				fmt.Fprintf(w, "t2c_request_latency_seconds_bucket{%s,le=\"%g\"} %d\n",
					labels, float64(ub)/1e9, cum)
			}
			cum += h.buckets[len(latencyBucketsNs)].Load()
			fmt.Fprintf(w, "t2c_request_latency_seconds_bucket{%s,le=\"+Inf\"} %d\n", labels, cum)
			fmt.Fprintf(w, "t2c_request_latency_seconds_sum{%s} %g\n", labels, float64(h.sumNs.Load())/1e9)
			fmt.Fprintf(w, "t2c_request_latency_seconds_count{%s} %d\n", labels, h.count.Load())
		}
	}

	if reg == nil {
		return
	}
	infos := reg.Models()
	emit := func(metric, help, typ string, val func(ModelInfo) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		for _, mi := range infos {
			fmt.Fprintf(w, "%s{model=%q} %d\n", metric, mi.Name, val(mi))
		}
	}
	emit("t2c_model_version", "Currently served checkpoint version.", "gauge",
		func(mi ModelInfo) int64 { return int64(mi.Version) })
	emit("t2c_engine_requests_total", "Samples served by the engine.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.Requests })
	emit("t2c_engine_batches_total", "Batched executes run by the engine.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.Batches })
	emit("t2c_engine_failures_total", "Samples that failed during execution.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.Failures })
	emit("t2c_engine_queue_rejects_total", "Samples refused or evicted by the full queue.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.Rejected })
	emit("t2c_engine_deadline_drops_total", "Samples dropped unexecuted past their deadline.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.Expired })
	emit("t2c_engine_arena_bytes", "Planned per-dtype buffer arenas held by the serving version's executors.", "gauge",
		func(mi ModelInfo) int64 { return mi.Mem.ArenaBytes })
	emit("t2c_engine_scratch_bytes", "Kernel scratch bound by the serving version's executors.", "gauge",
		func(mi ModelInfo) int64 { return mi.Mem.ScratchBytes })
	fmt.Fprintf(w, "# HELP t2c_engine_weight_sparsity Exactly-zero weight fraction of the serving program.\n# TYPE t2c_engine_weight_sparsity gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "t2c_engine_weight_sparsity{model=%q} %g\n", mi.Name, mi.Mem.WeightSparsity)
	}
	fmt.Fprintf(w, "# HELP t2c_engine_skip_fraction Modeled MAC share skipped by the sparsity-aware kernels.\n# TYPE t2c_engine_skip_fraction gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "t2c_engine_skip_fraction{model=%q} %g\n", mi.Name, mi.Mem.SkipFraction)
	}
	fmt.Fprintf(w, "# HELP t2c_engine_mean_batch Mean samples per batched execute.\n# TYPE t2c_engine_mean_batch gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "t2c_engine_mean_batch{model=%q} %g\n", mi.Name, mi.Stats.MeanBatch())
	}
	emit("t2c_queue_depth", "Samples waiting in the model's queue, sampled at scrape time.", "gauge",
		func(mi ModelInfo) int64 { return int64(mi.QueueDepth) })
	emit("t2c_cache_hits_total", "Inference-cache hits (bit-identical to recompute).", "counter",
		func(mi ModelInfo) int64 { return mi.Cache.Hits })
	emit("t2c_cache_misses_total", "Inference-cache misses.", "counter",
		func(mi ModelInfo) int64 { return mi.Cache.Misses })
	emit("t2c_cache_evictions_total", "Inference-cache LRU evictions.", "counter",
		func(mi ModelInfo) int64 { return mi.Cache.Evictions })
	emit("t2c_cache_suppressed_total", "Inserts skipped while hit-rate admission backed caching off.", "counter",
		func(mi ModelInfo) int64 { return mi.Cache.Suppressed })
	emit("t2c_cache_entries", "Inference-cache entries currently held.", "gauge",
		func(mi ModelInfo) int64 { return int64(mi.Cache.Entries) })
	emit("t2c_cache_capacity", "Inference-cache capacity (0 = caching disabled).", "gauge",
		func(mi ModelInfo) int64 { return int64(mi.Cache.Capacity) })
	fmt.Fprintf(w, "# HELP t2c_cache_hit_rate Lifetime inference-cache hit rate.\n# TYPE t2c_cache_hit_rate gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "t2c_cache_hit_rate{model=%q} %g\n", mi.Name, mi.Cache.HitRate)
	}
	emit("t2c_sched_shed_high_total", "High-class samples shed by the full queue.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.ShedHigh })
	emit("t2c_sched_shed_normal_total", "Normal-class samples shed by the full queue.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.ShedNormal })
	emit("t2c_sched_shed_low_total", "Low-class samples shed by the full queue.", "counter",
		func(mi ModelInfo) int64 { return mi.Stats.ShedLow })
	emit("t2c_modeled_batch_ns", "Modeled full-batch execution cost in nanoseconds (EstimateCost at MaxBatch).", "gauge",
		func(mi ModelInfo) int64 { return mi.Cost.ModeledBatchNs })
	fmt.Fprintf(w, "# HELP t2c_batch_cost_abs_err Mean relative modeled-vs-measured batch execution error.\n# TYPE t2c_batch_cost_abs_err gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "t2c_batch_cost_abs_err{model=%q} %g\n", mi.Name, mi.Cost.MeanAbsErr())
	}
	fmt.Fprintf(w, "# HELP t2c_batch_wait_seconds Time each formed batch waited for a free worker, from its first request to hand-off.\n# TYPE t2c_batch_wait_seconds histogram\n")
	for _, mi := range infos {
		writeHistSnapshot(w, "t2c_batch_wait_seconds", fmt.Sprintf("model=%q", mi.Name), mi.BatchWait)
	}
	fmt.Fprintf(w, "# HELP t2c_batch_exec_seconds Measured batch execution time.\n# TYPE t2c_batch_exec_seconds histogram\n")
	for _, mi := range infos {
		writeHistSnapshot(w, "t2c_batch_exec_seconds", fmt.Sprintf("model=%q", mi.Name), mi.BatchExec)
	}
	fmt.Fprintf(w, "# HELP t2c_batch_slack_seconds Earliest-deadline slack remaining at batch dispatch.\n# TYPE t2c_batch_slack_seconds histogram\n")
	for _, mi := range infos {
		writeHistSnapshot(w, "t2c_batch_slack_seconds", fmt.Sprintf("model=%q", mi.Name), mi.BatchSlack)
	}
	// Per-op execution-time histograms exist only when the registry was
	// built with tracing: they aggregate the engine's instruction spans.
	wroteOpHeader := false
	for _, mi := range infos {
		ops := reg.Tracer(mi.Name).OpProfile()
		if len(ops) > 0 && !wroteOpHeader {
			fmt.Fprintf(w, "# HELP t2c_op_seconds Measured per-instruction execution time by op kind (traced models only).\n# TYPE t2c_op_seconds histogram\n")
			wroteOpHeader = true
		}
		for _, op := range ops {
			writeHistSnapshot(w, "t2c_op_seconds", fmt.Sprintf("model=%q,op=%q", mi.Name, op.Name), op.Hist)
		}
	}
}

// writeHistSnapshot emits one trace.HistSnapshot (ns bounds,
// non-cumulative counts) as a Prometheus histogram in seconds.
func writeHistSnapshot(w io.Writer, metric, labels string, h trace.HistSnapshot) {
	cum := int64(0)
	for i, ub := range h.BoundsNs {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", metric, labels, float64(ub)/1e9, cum)
	}
	if n := len(h.BoundsNs); n < len(h.Counts) {
		cum += h.Counts[n]
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", metric, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", metric, labels, float64(h.SumNs)/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", metric, labels, h.Count)
}
