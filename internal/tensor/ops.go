package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor { return zipNew(a, b, func(x, y float32) float32 { return x + y }) }

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor { return zipNew(a, b, func(x, y float32) float32 { return x - y }) }

// Mul returns a * b elementwise.
func Mul(a, b *Tensor) *Tensor { return zipNew(a, b, func(x, y float32) float32 { return x * y }) }

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor { return zipNew(a, b, func(x, y float32) float32 { return x / y }) }

func zipNew(a, b *Tensor, f func(x, y float32) float32) *Tensor {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i], b.Data[i])
	}
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AxpyInPlace computes a += alpha*b.
func AxpyInPlace(a *Tensor, alpha float32, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic("tensor: AxpyInPlace size mismatch")
	}
	for i := range a.Data {
		a.Data[i] += alpha * b.Data[i]
	}
}

// Scale returns alpha * a.
func Scale(a *Tensor, alpha float32) *Tensor {
	out := New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = alpha * v
	}
	return out
}

// ScaleInPlace computes a *= alpha.
func ScaleInPlace(a *Tensor, alpha float32) {
	for i := range a.Data {
		a.Data[i] *= alpha
	}
}

// AddScalar returns a + c.
func AddScalar(a *Tensor, c float32) *Tensor {
	out := New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = v + c
	}
	return out
}

// Apply returns f applied elementwise.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f elementwise in place.
func ApplyInPlace(a *Tensor, f func(float32) float32) {
	for i, v := range a.Data {
		a.Data[i] = f(v)
	}
}

// Clamp returns a with every element clipped to [lo, hi].
func Clamp(a *Tensor, lo, hi float32) *Tensor {
	return Apply(a, func(v float32) float32 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}

// Dot returns the inner product of two equal-length tensors.
func Dot(a, b *Tensor) float32 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: Dot size mismatch")
	}
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return float32(s)
}

// MatMul computes C[m,n] = A[m,k] × B[k,n] using a cache-friendly ikj loop,
// parallelized over rows for large problems.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	gemm(a.Data, b.Data, c.Data, m, k, n)
	return c
}

// gemm computes C += A×B for row-major matrices (C is pre-zeroed by callers).
func gemm(a, b, c []float32, m, k, n int) {
	rowFn := func(i int) {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j := range ci {
				ci[j] += av * bp[j]
			}
		}
	}
	parallelFor(m, m*k*n >= 1<<18, rowFn)
}

// poolJob is one chunk of a parallelFor, dispatched to the worker pool.
// Exactly one of fn / fnSlot is set; fnSlot additionally receives the
// chunk's slot index so kernels can use per-chunk scratch without
// synchronization.
type poolJob struct {
	fn     func(i int)
	fnSlot func(i, slot int)
	slot   int
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce    sync.Once
	poolJobs    chan poolJob
	poolWorkers int

	// parCap bounds how many chunks a parallel section may split into,
	// process-wide. 0 means "pool width". It exists so callers that must
	// emulate a narrower machine (bench sweeps over GOMAXPROCS, serving
	// workers sharing cores) can throttle splitting without restarting
	// the pool: idle workers simply receive no jobs.
	parCap atomic.Int32

	// waitGroups recycles the per-section WaitGroup, which the pool jobs
	// point at and which would otherwise escape to the heap on every
	// parallel section.
	waitGroups = make(chan *sync.WaitGroup, 64)
)

// SetParallelism bounds the number of chunks every subsequent parallel
// section splits into (including the caller's own chunk). n <= 0 removes
// the bound. The previous value is returned so callers can restore it.
// The bound only limits splitting — it never grows the pool beyond the
// width frozen at first use.
func SetParallelism(n int) int {
	old := int(parCap.Swap(int32(n)))
	return old
}

// Parallelism reports the current effective split width: the frozen pool
// width clamped by SetParallelism.
func Parallelism() int {
	ensurePool()
	return splitWidth(0)
}

// InitParallel forces the worker pool to start now, freezing its width at
// the current GOMAXPROCS, and returns that width. Benchmarks that sweep
// GOMAXPROCS call it once at the highest value so later SetParallelism
// caps can only narrow, never wish for workers that were never started.
func InitParallel() int {
	ensurePool()
	return poolWorkers
}

// splitWidth returns how many chunks a section may split into given the
// pool width, the process-wide cap, and a per-call bound (0 = none).
func splitWidth(maxSplit int) int {
	w := poolWorkers
	if c := int(parCap.Load()); c > 0 && c < w {
		w = c
	}
	if maxSplit > 0 && maxSplit < w {
		w = maxSplit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ensurePool lazily starts the process-wide worker pool. Persistent
// workers avoid spawning goroutines on every parallel section, which
// keeps hot inference loops allocation-free. The worker count is frozen
// at first use: slot-carrying loops and the scratch arrays sized from
// MaxParallelSlots must agree forever, even if GOMAXPROCS changes later.
func ensurePool() {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		poolWorkers = n
		poolJobs = make(chan poolJob, 4*n)
		for w := 0; w < n; w++ {
			go func() {
				for j := range poolJobs {
					if j.fnSlot != nil {
						for i := j.lo; i < j.hi; i++ {
							j.fnSlot(i, j.slot)
						}
					} else {
						for i := j.lo; i < j.hi; i++ {
							j.fn(i)
						}
					}
					j.wg.Done()
				}
			}()
		}
	})
}

// getWaitGroup takes a recycled WaitGroup, or a new one when none is free.
func getWaitGroup() *sync.WaitGroup {
	select {
	case wg := <-waitGroups:
		return wg
	default:
		return new(sync.WaitGroup)
	}
}

// putWaitGroup recycles a WaitGroup whose Wait has returned.
func putWaitGroup(wg *sync.WaitGroup) {
	select {
	case waitGroups <- wg:
	default:
	}
}

// parallelFor runs fn(i) for i in [0,n), in parallel when parallel is
// true. The caller executes the first chunk itself and chunks that do not
// fit the pool queue run inline, so progress never depends on a free
// worker. fn must not call parallelFor (workers do not re-dispatch).
func parallelFor(n int, parallel bool, fn func(i int)) {
	parallelForN(n, 0, parallel, fn)
}

// parallelForN is parallelFor with a per-call split bound (0 = none),
// further clamped by the process-wide SetParallelism cap.
func parallelForN(n, maxSplit int, parallel bool, fn func(i int)) {
	if !parallel || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ensurePool()
	workers := splitWidth(maxSplit)
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	wg := getWaitGroup()
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case poolJobs <- poolJob{fn: fn, lo: lo, hi: hi, wg: wg}:
		default:
			for i := lo; i < hi; i++ {
				fn(i)
			}
			wg.Done()
		}
	}
	end := chunk
	if end > n {
		end = n
	}
	for i := 0; i < end; i++ {
		fn(i)
	}
	wg.Wait()
	putWaitGroup(wg)
}

// MaxParallelSlots bounds the slot indices parallelForSlots hands out:
// slot 0 runs on the caller, the rest on pool workers. Kernels size
// per-slot scratch arrays with it. The value is frozen when the worker
// pool first starts, so scratch sized at executor bind time stays valid
// even if GOMAXPROCS changes afterwards.
func MaxParallelSlots() int {
	ensurePool()
	return poolWorkers
}

// parallelForSlots is parallelFor for kernels that need per-chunk
// scratch: fn(i, slot) may freely reuse scratch dedicated to slot, since
// a slot is never executed by two goroutines at once. Slots are in
// [0, MaxParallelSlots()).
func parallelForSlots(n int, parallel bool, fn func(i, slot int)) {
	parallelForSlotsN(n, 0, parallel, fn)
}

// parallelForSlotsN is parallelForSlots with a per-call split bound
// (0 = none), further clamped by the process-wide SetParallelism cap.
func parallelForSlotsN(n, maxSplit int, parallel bool, fn func(i, slot int)) {
	if !parallel || n < 2 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	ensurePool()
	workers := splitWidth(maxSplit)
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	wg := getWaitGroup()
	slot := 1
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case poolJobs <- poolJob{fnSlot: fn, slot: slot, lo: lo, hi: hi, wg: wg}:
		default:
			// Queue full: run inline on the caller's slot (0), which is
			// only used between the dispatch loop and the tail chunk here,
			// so no other goroutine shares it.
			for i := lo; i < hi; i++ {
				fn(i, 0)
			}
			wg.Done()
		}
		slot++
	}
	end := chunk
	if end > n {
		end = n
	}
	for i := 0; i < end; i++ {
		fn(i, 0)
	}
	wg.Wait()
	putWaitGroup(wg)
}

// MatMulT computes A[m,k] × Bᵀ where b is [n,k], returning [m,n]. This is the
// natural layout for linear layers whose weights are stored [out,in].
func MatMulT(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT shapes %v × %vᵀ", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	parallelFor(m, m*k*n >= 1<<18, func(i int) {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for p := range ai {
				s += ai[p] * bj[p]
			}
			ci[j] = s
		}
	})
	return c
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// SumAxis0 sums a [m,n] tensor over rows, returning [n].
func SumAxis0(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: SumAxis0 requires rank 2")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// Softmax computes a row-wise softmax over the last dimension.
func Softmax(a *Tensor) *Tensor {
	rows, cols := flatten2D(a)
	out := New(a.Shape...)
	for r := 0; r < rows; r++ {
		in := a.Data[r*cols : (r+1)*cols]
		o := out.Data[r*cols : (r+1)*cols]
		m := float32(math.Inf(-1))
		for _, v := range in {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range in {
			e := float32(math.Exp(float64(v - m)))
			o[j] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for j := range o {
			o[j] *= inv
		}
	}
	return out
}

// LogSoftmax computes a row-wise log-softmax over the last dimension.
func LogSoftmax(a *Tensor) *Tensor {
	rows, cols := flatten2D(a)
	out := New(a.Shape...)
	for r := 0; r < rows; r++ {
		in := a.Data[r*cols : (r+1)*cols]
		o := out.Data[r*cols : (r+1)*cols]
		m := float32(math.Inf(-1))
		for _, v := range in {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range in {
			sum += math.Exp(float64(v - m))
		}
		lse := m + float32(math.Log(sum))
		for j, v := range in {
			o[j] = v - lse
		}
	}
	return out
}

func flatten2D(a *Tensor) (rows, cols int) {
	if len(a.Shape) == 0 {
		panic("tensor: rank 0")
	}
	cols = a.Shape[len(a.Shape)-1]
	rows = len(a.Data) / cols
	return rows, cols
}

// AllClose reports whether all elements of a and b differ by at most atol +
// rtol*|b|.
func AllClose(a, b *Tensor, rtol, atol float32) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		diff := a.Data[i] - b.Data[i]
		if diff < 0 {
			diff = -diff
		}
		ref := b.Data[i]
		if ref < 0 {
			ref = -ref
		}
		if diff > atol+rtol*ref {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest |a-b| elementwise.
func MaxAbsDiff(a, b *Tensor) float32 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: MaxAbsDiff size mismatch")
	}
	var m float32
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
