package tensor

// Parallel-loop entry points for the integer kernels outside this
// package (the engine's conv, linear and transformer kernels).

// ParallelForInt exposes the package's chunked parallel loop to integer
// kernel implementations outside this package. fn must not itself invoke
// a parallel loop.
func ParallelForInt(n int, parallel bool, fn func(i int)) { parallelFor(n, parallel, fn) }

// ParallelForIntN is ParallelForInt with a per-call split bound
// (maxSplit <= 0 means unbounded); the process-wide SetParallelism cap
// still applies on top.
func ParallelForIntN(n, maxSplit int, parallel bool, fn func(i int)) {
	parallelForN(n, maxSplit, parallel, fn)
}

// ParallelForSlots is ParallelForInt for kernels carrying per-chunk
// scratch: fn(i, slot) owns the scratch dedicated to slot for the whole
// chunk (slots are in [0, MaxParallelSlots()) and never run twice
// concurrently). fn must not itself invoke a parallel loop.
func ParallelForSlots(n int, parallel bool, fn func(i, slot int)) { parallelForSlots(n, parallel, fn) }

// ParallelForSlotsN is ParallelForSlots with a per-call split bound
// (maxSplit <= 0 means unbounded); the process-wide SetParallelism cap
// still applies on top.
func ParallelForSlotsN(n, maxSplit int, parallel bool, fn func(i, slot int)) {
	parallelForSlotsN(n, maxSplit, parallel, fn)
}
