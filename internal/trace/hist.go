package trace

import "sync/atomic"

// OpBucketsNs are the upper bounds of the per-op-kind execution-time
// histograms (1 µs … 1 s, decade steps with a 2.5/5 split in the
// µs-to-ms range where kernels actually land); an implicit +Inf bucket
// follows. Shared with the /metrics exposition so every op and batch
// histogram buckets identically.
var OpBucketsNs = []int64{
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
	10_000_000, 100_000_000, 1_000_000_000,
}

// BatchWaitBucketsNs bound the histogram of how long a formed batch
// waited for a free worker (10 µs … 1 s): waits cluster at "a worker
// was idle, no wait" or near one batch execution time while every
// worker was busy, so coarse decades suffice.
var BatchWaitBucketsNs = []int64{
	10_000, 50_000, 100_000, 500_000,
	1_000_000, 5_000_000, 10_000_000, 50_000_000,
	100_000_000, 1_000_000_000,
}

// Hist is a fixed-bucket duration histogram with atomic counters,
// cheap enough for always-on paths (one bucket add + two adds per
// observe). Buckets are non-cumulative internally.
type Hist struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last = +Inf overflow
	sumNs   atomic.Int64
	count   atomic.Int64
}

// NewHist builds a histogram over the given ascending ns upper bounds.
func NewHist(boundsNs []int64) *Hist {
	return &Hist{bounds: boundsNs, buckets: make([]atomic.Int64, len(boundsNs)+1)}
}

// Observe records one duration in nanoseconds.
func (h *Hist) Observe(ns int64) {
	i := 0
	for i < len(h.bounds) && ns > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// HistSnapshot is a point-in-time copy of a Hist, JSON- and
// exposition-friendly (counts are non-cumulative, aligned to Bounds
// with one +Inf overflow entry appended).
type HistSnapshot struct {
	BoundsNs []int64 `json:"bounds_ns,omitempty"`
	Counts   []int64 `json:"counts,omitempty"`
	SumNs    int64   `json:"sum_ns"`
	Count    int64   `json:"count"`
}

// Snapshot copies the histogram's counters.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		BoundsNs: h.bounds,
		Counts:   make([]int64, len(h.buckets)),
		SumNs:    h.sumNs.Load(),
		Count:    h.count.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// opAgg accumulates KindInstr spans for one interned name.
type opAgg struct {
	name string
	hist *Hist
}

func newOpAgg(name string) *opAgg {
	return &opAgg{name: name, hist: NewHist(OpBucketsNs)}
}

func (a *opAgg) observe(ns int64) { a.hist.Observe(ns) }

// OpStat is one op kind's aggregated execution-time record.
type OpStat struct {
	Name  string       `json:"op"`
	Count int64        `json:"count"`
	SumNs int64        `json:"sum_ns"`
	Hist  HistSnapshot `json:"hist"`
}

// OpProfile returns the per-op-kind execution-time aggregates in
// interning order, skipping names that never recorded an instruction
// span (batch/request names share the intern table).
func (t *Tracer) OpProfile() []OpStat {
	if t == nil {
		return nil
	}
	ops := *t.ops.Load()
	out := make([]OpStat, 0, len(ops))
	for _, a := range ops {
		h := a.hist.Snapshot()
		if h.Count == 0 {
			continue
		}
		out = append(out, OpStat{Name: a.name, Count: h.Count, SumNs: h.SumNs, Hist: h})
	}
	return out
}
