// Package trace is the serving stack's low-overhead span recorder: a
// set of fixed-size per-writer ring buffers holding timing spans, owned
// by one Tracer per traced scope (one per served model, or one per
// bench run). It is built for the engine's hot path:
//
//   - Recording is allocation-free. Spans are plain structs copied into
//     preallocated ring slots; span names are interned once at bind
//     time and stored as small integer ids.
//   - The disabled path is a single branch: callers hold a *Ring that
//     is nil when tracing was never configured, and an enabled-flag
//     atomic load when it was. No clock is read, no slot is touched.
//   - Rings accept concurrent writers. A writer reserves its slot with
//     one atomic cursor increment; every slot field is an atomic, and a
//     per-slot sequence word is published last, so readers snapshotting
//     a live ring detect and drop torn or overwritten slots instead of
//     racing (the whole package is clean under -race).
//
// A ring holds the most recent RingSpans records per writer — tracing
// is a flight recorder, not a log: old spans are overwritten, and a
// Snapshot returns whatever window is still intact. Alongside the raw
// spans the Tracer keeps per-op-kind duration histograms (updated on
// every instruction span, readable at any time) that survive ring
// wraparound, which is what the /metrics exposition consumes.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span for exposition (Chrome category, profile
// aggregation). KindInstr spans additionally feed the op histograms.
type Kind uint8

const (
	KindInstr     Kind = iota + 1 // one engine instruction
	KindBatch                     // one batched execute on a worker
	KindQueueWait                 // request sat in the model's queue
	KindBatchForm                 // batcher coalescing window
	KindRequest                   // whole HTTP predict request
	KindFanout                    // one wave of a request's samples through the registry
	KindAdmission                 // a group the full queue refused
	KindDecode                    // parsing a request body into samples
	KindEncode                    // writing a predict response body
)

// String names the kind for Chrome trace categories.
func (k Kind) String() string {
	switch k {
	case KindInstr:
		return "instr"
	case KindBatch:
		return "batch"
	case KindQueueWait:
		return "queue_wait"
	case KindBatchForm:
		return "batch_form"
	case KindRequest:
		return "request"
	case KindFanout:
		return "fanout"
	case KindAdmission:
		return "admission"
	case KindDecode:
		return "decode"
	case KindEncode:
		return "encode"
	default:
		return "span"
	}
}

// Span is one recorded timing interval. Start is nanoseconds since the
// owning Tracer's epoch; Name is an id from Tracer.Intern. ID carries
// the request trace id (0 when the span is not request-scoped), TID the
// lane it ran on (worker index, or a synthetic HTTP lane), and A0/A1
// kind-specific arguments: output-buffer bytes and instruction index
// for instructions, batch size for batches and queue waits.
type Span struct {
	Start int64
	Dur   int64
	Name  uint32
	Kind  Kind
	TID   int32
	ID    uint64
	A0    int64
	A1    int64
}

// Config sizes a Tracer.
type Config struct {
	// RingSpans is each ring's capacity in spans, rounded up to a power
	// of two (default 4096, ~256 KiB per ring).
	RingSpans int
	// SampleEvery traces one in every N requests at the HTTP layer
	// (default 1 = every request). Engine-level spans are not sampled:
	// they are per-batch, already bounded by the ring.
	SampleEvery int
}

func (c Config) withDefaults() Config {
	if c.RingSpans <= 0 {
		c.RingSpans = 4096
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	return c
}

// Tracer owns the rings and interned names of one traced scope. The
// zero of *Tracer (nil) is a valid "tracing never configured" tracer:
// every method is nil-safe and NewRing returns a nil *Ring whose
// Active() is false.
type Tracer struct {
	cfg     Config
	epoch   time.Time
	enabled atomic.Bool
	reqSeq  atomic.Uint64 // request sampling counter

	mu    sync.Mutex
	rings []*Ring
	names []string
	ids   map[string]uint32

	// ops[nameID] aggregates KindInstr span durations per interned
	// name; the slice is copy-on-grow behind an atomic pointer so
	// Record never takes the lock.
	ops atomic.Pointer[[]*opAgg]
}

// New builds a Tracer. Tracing starts disabled; call SetEnabled(true)
// to arm it.
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg.withDefaults(), epoch: time.Now(), ids: map[string]uint32{}}
	empty := make([]*opAgg, 0)
	t.ops.Store(&empty)
	return t
}

// SetEnabled arms or disarms recording. Rings and interned names are
// kept, so tracing can be toggled without rebinding executors.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether recording is armed (false for a nil Tracer).
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Now returns nanoseconds since the tracer's epoch (monotonic).
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// SampleRequest reports whether the next HTTP request should be traced
// under the configured 1-in-N sampling. It must only be consulted when
// Enabled() already holds.
func (t *Tracer) SampleRequest() bool {
	if t == nil {
		return false
	}
	n := uint64(t.cfg.SampleEvery)
	return n <= 1 || t.reqSeq.Add(1)%n == 0
}

// Intern registers a span name and returns its id. Binding-time only;
// the id is stable for the tracer's lifetime.
func (t *Tracer) Intern(name string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	old := *t.ops.Load()
	next := make([]*opAgg, len(old)+1)
	copy(next, old)
	next[len(old)] = newOpAgg(name)
	t.ops.Store(&next)
	return id
}

// Name resolves an interned id ("?" for ids this tracer never issued).
func (t *Tracer) Name(id uint32) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return "?"
}

// NewRing allocates and registers a ring (nil for a nil Tracer). Rings
// support any number of concurrent writers; allocate per writer when
// per-lane ordering matters, or share one per subsystem.
func (t *Tracer) NewRing() *Ring {
	if t == nil {
		return nil
	}
	size := 1
	for size < t.cfg.RingSpans {
		size <<= 1
	}
	r := &Ring{t: t, slots: make([]slot, size), mask: uint64(size - 1)}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// Snapshot copies every intact span currently held across the tracer's
// rings, sorted by start time. Torn slots (mid-write or overwritten
// during the copy) are dropped; with writers still running the result
// is a best-effort window, which is exactly what a flight recorder
// owes its reader.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	rings := append([]*Ring(nil), t.rings...)
	t.mu.Unlock()
	var out []Span
	for _, r := range rings {
		out = r.appendSnapshot(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// slot is one ring entry. Every field is atomic so a reader copying a
// slot concurrently overwritten by a writer is well-defined (never a
// data race); seq is written last with the slot's absolute position+1,
// letting the reader verify the copy was of one complete record.
type slot struct {
	seq   atomic.Uint64
	start atomic.Int64
	dur   atomic.Int64
	id    atomic.Uint64
	a0    atomic.Int64
	a1    atomic.Int64
	meta  atomic.Uint64 // name(32) | kind(8) | tid(24)
}

func packMeta(name uint32, kind Kind, tid int32) uint64 {
	return uint64(name)<<32 | uint64(kind)<<24 | uint64(uint32(tid)&0xffffff)
}

func unpackMeta(m uint64) (name uint32, kind Kind, tid int32) {
	return uint32(m >> 32), Kind(m >> 24 & 0xff), int32(m & 0xffffff)
}

// Ring is a fixed-size multi-writer span buffer. The write cursor only
// grows; slot p lives at p mod len and holds seq p+1 once published.
type Ring struct {
	t      *Tracer
	slots  []slot
	mask   uint64
	cursor atomic.Uint64
}

// Active reports whether recording into this ring does anything — the
// single branch the disabled path pays (plus one atomic load when a
// tracer was configured).
func (r *Ring) Active() bool { return r != nil && r.t.enabled.Load() }

// Tracer returns the ring's owner (for interning names at bind time),
// nil for a nil ring.
func (r *Ring) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.t
}

// Now returns nanoseconds since the owning tracer's epoch.
func (r *Ring) Now() int64 { return r.t.Now() }

// Record appends one span. Callers must have checked Active; a span
// recorded while the tracer is mid-disable still lands harmlessly.
// KindInstr spans also feed the per-op-kind histogram, which is what
// survives ring wraparound.
func (r *Ring) Record(s Span) {
	p := r.cursor.Add(1) - 1
	sl := &r.slots[p&r.mask]
	sl.seq.Store(0) // invalidate while fields are in flux
	sl.start.Store(s.Start)
	sl.dur.Store(s.Dur)
	sl.id.Store(s.ID)
	sl.a0.Store(s.A0)
	sl.a1.Store(s.A1)
	sl.meta.Store(packMeta(s.Name, s.Kind, s.TID))
	sl.seq.Store(p + 1)
	if s.Kind == KindInstr {
		if ops := *r.t.ops.Load(); int(s.Name) < len(ops) {
			ops[s.Name].observe(s.Dur)
		}
	}
}

// Snapshot copies the ring's intact spans in recording order (nil for
// a nil ring).
func (r *Ring) Snapshot() []Span {
	if r == nil {
		return nil
	}
	return r.appendSnapshot(nil)
}

// appendSnapshot copies the ring's intact spans onto dst.
func (r *Ring) appendSnapshot(dst []Span) []Span {
	cur := r.cursor.Load()
	n := uint64(len(r.slots))
	lo := uint64(0)
	if cur > n {
		lo = cur - n
	}
	for p := lo; p < cur; p++ {
		sl := &r.slots[p&r.mask]
		if sl.seq.Load() != p+1 {
			continue // mid-write or already overwritten
		}
		var s Span
		s.Start = sl.start.Load()
		s.Dur = sl.dur.Load()
		s.ID = sl.id.Load()
		s.A0 = sl.a0.Load()
		s.A1 = sl.a1.Load()
		s.Name, s.Kind, s.TID = unpackMeta(sl.meta.Load())
		if sl.seq.Load() != p+1 {
			continue // overwritten while copying: drop the torn record
		}
		dst = append(dst, s)
	}
	return dst
}

// Len reports how many spans have ever been recorded (not the retained
// window).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}
