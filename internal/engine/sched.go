package engine

// Request scheduling for the batched serving runtime: a priority queue
// that orders waiting requests earliest-deadline-first within priority
// classes (SchedEDF, the default) or strictly by arrival (SchedFIFO,
// the measured baseline), with shed-on-full victim selection so a full
// queue evicts its least urgent request instead of uniformly rejecting
// whatever arrives next. Ordering only changes *when* a request
// executes, never its values — bit-exactness is untouched.

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// PriorityClass ranks requests across classes: lower values are served
// first and shed last. The zero value is PriNormal, so callers that
// never mention priority get the historical behavior.
type PriorityClass int

const (
	// PriHigh requests are scheduled before all others and are the last
	// to be shed under overload.
	PriHigh PriorityClass = -1
	// PriNormal is the default class.
	PriNormal PriorityClass = 0
	// PriLow requests yield to every other class: they are scheduled
	// last and evicted first when a queue fills.
	PriLow PriorityClass = 1
)

// String implements fmt.Stringer ("high", "normal", "low").
func (c PriorityClass) String() string {
	switch {
	case c < PriNormal:
		return "high"
	case c > PriNormal:
		return "low"
	default:
		return "normal"
	}
}

// ParsePriority maps the wire-format class names to PriorityClass.
func ParsePriority(s string) (PriorityClass, error) {
	switch s {
	case "high":
		return PriHigh, nil
	case "", "normal":
		return PriNormal, nil
	case "low":
		return PriLow, nil
	}
	return PriNormal, fmt.Errorf("engine: unknown priority class %q (use high, normal, or low)", s)
}

// SchedPolicy selects how a server's request queue orders waiting work.
type SchedPolicy string

const (
	// SchedEDF orders the queue by (priority class, deadline, arrival):
	// higher classes first, earlier deadlines first within a class,
	// deadline-less requests after deadlined ones, FIFO as the final
	// tie-break. The batcher also closes batches deadline-driven.
	SchedEDF SchedPolicy = "edf"
	// SchedFIFO is the pre-cost-model baseline: strict arrival order,
	// and batches close only when full or when a worker is idle.
	SchedFIFO SchedPolicy = "fifo"
)

// ParseSchedPolicy validates a policy name ("" resolves to SchedEDF).
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	switch SchedPolicy(s) {
	case "", SchedEDF:
		return SchedEDF, nil
	case SchedFIFO:
		return SchedFIFO, nil
	}
	return SchedEDF, fmt.Errorf("engine: unknown sched policy %q (use edf or fifo)", s)
}

// reqQueue is the server's bounded request priority queue. It replaces
// the former queue channel: a mutex-guarded heap whose ordering is the
// scheduling policy, a buffered notEmpty token the batcher waits on
// (sticky, so a signal sent while the batcher is busy is never lost),
// and a condition variable blocking producers that asked to wait for
// space.
type reqQueue struct {
	mu     sync.Mutex
	items  []request
	limit  int
	edf    bool
	closed bool
	seq    uint64

	notEmpty chan struct{}
	space    *sync.Cond
}

func newReqQueue(limit int, edf bool) *reqQueue {
	q := &reqQueue{limit: limit, edf: edf, notEmpty: make(chan struct{}, 1)}
	q.space = sync.NewCond(&q.mu)
	return q
}

// before reports whether a should execute ahead of b under the queue's
// policy. EDF compares class, then deadline (zero = no deadline = after
// any deadlined request), then arrival; FIFO compares arrival only.
func (q *reqQueue) before(a, b *request) bool {
	if q.edf {
		if a.class != b.class {
			return a.class < b.class
		}
		ad, bd := !a.deadline.IsZero(), !b.deadline.IsZero()
		if ad != bd {
			return ad
		}
		if ad && !a.deadline.Equal(b.deadline) {
			return a.deadline.Before(b.deadline)
		}
	}
	return a.seq < b.seq
}

// heap.Interface over items (min-heap under before).
func (q *reqQueue) Len() int           { return len(q.items) }
func (q *reqQueue) Less(i, j int) bool { return q.before(&q.items[i], &q.items[j]) }
func (q *reqQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *reqQueue) Push(x any)         { q.items = append(q.items, x.(request)) }
func (q *reqQueue) Pop() any {
	n := len(q.items)
	r := q.items[n-1]
	q.items[n-1] = request{} // release tensor/chan refs
	q.items = q.items[:n-1]
	return r
}

func (q *reqQueue) signal() {
	select {
	case q.notEmpty <- struct{}{}:
	default:
	}
}

// push enqueues the group rs all or nothing, under one lock and with one
// notEmpty signal, so a batcher that wakes sees the whole group. When it
// does not fit: a blocking push waits for space; a non-blocking push runs
// victim selection — the waiting requests that must make room are
// evicted (returned; the caller fails them with ErrQueueFull) only if
// each is strictly less urgent than every member of rs, otherwise rs is
// rejected whole with ErrQueueFull and the queue is left untouched.
// Under FIFO every arrival has the largest sequence number, so the
// incoming group is always the one shed.
func (q *reqQueue) push(rs []request, block bool) (victims []request, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, errServerClosed
		}
		over := len(q.items) + len(rs) - q.limit
		if over <= 0 {
			break
		}
		if !block {
			if victims = q.evictLocked(rs, over); victims == nil {
				return nil, ErrQueueFull
			}
			break
		}
		q.space.Wait()
	}
	for _, r := range rs {
		r.seq = q.seq
		q.seq++
		heap.Push(q, r)
	}
	q.signal()
	return victims, nil
}

// evictLocked removes and returns the over least urgent waiting requests
// when each is strictly less urgent than the group's last member (the
// least urgent one: members share class and deadline, and it gets the
// largest sequence number). Otherwise it restores what it removed and
// returns nil.
func (q *reqQueue) evictLocked(rs []request, over int) []request {
	last := rs[len(rs)-1]
	last.seq = q.seq + uint64(len(rs)-1)
	victims := make([]request, 0, over)
	for len(victims) < over {
		w := q.worstLocked()
		if w < 0 || !q.before(&last, &q.items[w]) {
			for _, v := range victims {
				heap.Push(q, v)
			}
			return nil
		}
		victims = append(victims, heap.Remove(q, w).(request))
	}
	return victims
}

// worstLocked finds the least urgent waiting request (max under before).
func (q *reqQueue) worstLocked() int {
	w := -1
	for i := range q.items {
		if w < 0 || q.before(&q.items[w], &q.items[i]) {
			w = i
		}
	}
	return w
}

// Pop-status results of tryPop.
const (
	popOK = iota
	popEmpty
	popRejected
)

// tryPop removes and returns the most urgent request. A non-nil accept
// predicate can veto it (popRejected) — the batcher's cost-aware close
// — in which case the request stays queued at its position.
func (q *reqQueue) tryPop(accept func(request) bool) (request, int) {
	q.mu.Lock()
	if len(q.items) == 0 {
		q.mu.Unlock()
		return request{}, popEmpty
	}
	if accept != nil && !accept(q.items[0]) {
		q.mu.Unlock()
		return request{}, popRejected
	}
	r := heap.Pop(q).(request)
	q.space.Signal()
	q.mu.Unlock()
	return r, popOK
}

// waitPop blocks until a request is available (returning it) or the
// queue is closed and drained (ok=false).
func (q *reqQueue) waitPop() (request, bool) {
	for {
		r, st := q.tryPop(nil)
		if st == popOK {
			return r, true
		}
		if q.closedAndEmpty() {
			return request{}, false
		}
		<-q.notEmpty
	}
}

func (q *reqQueue) closedAndEmpty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && len(q.items) == 0
}

func (q *reqQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close marks the queue closed and wakes everyone: blocked producers
// fail, the batcher drains what remains and exits.
func (q *reqQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.space.Broadcast()
	q.signal()
}

// earliestDeadline returns the earliest non-zero deadline in batch, and
// extra when it is earlier still (extra is the candidate the batcher is
// deciding whether to admit; pass zero time to ignore). Zero means no
// member carries a deadline.
func earliestDeadline(batch []request, extra time.Time) time.Time {
	ed := extra
	for i := range batch {
		d := batch[i].deadline
		if d.IsZero() {
			continue
		}
		if ed.IsZero() || d.Before(ed) {
			ed = d
		}
	}
	return ed
}
