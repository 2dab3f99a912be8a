package engine

// Bind-time wave scheduling: the planner co-plans placement with a wave
// schedule (plan.go) — mutually independent GEMM instructions are
// grouped into waves whose outputs the planner keeps in disjoint arena
// regions, under a configurable arena-growth budget. The executor
// consumes that schedule here: at bind it checks each parallel wave, on
// each batch size's first execute it flattens the wave's members into
// one combined job grid (every member contributes its intra-op tiles),
// and at run time the whole grid dispatches as a single pool pass — cross-instruction parallelism for independent IR
// nodes (e.g. the q/k/v projections of a transformer block) without
// giving up intra-op splitting for the members that need it.

import "torch2chip/internal/tensor"

// waveRunner is implemented by prepacked kernel states that can expose
// their instruction as a grid of slot-confined jobs: jobs returns a
// body executing one job on one parallel slot (touching only that
// slot's scratch), the job count, and whether the grid is worth a
// parallel dispatch on its own. That is exactly the contract
// wave-parallel execution needs — jobs from different members run
// concurrently, each confined to the slot the pool handed it. States
// that stage through the executor's shared grow-only scratch
// (elementwise kernels) must not implement it.
type waveRunner interface {
	jobs(ex *Executor, idx int, it *Instr, in []*tensor.IntTensor, out *tensor.IntTensor) (func(job, slot int), int, bool)
}

// wave is one scheduling step of the bound program.
type wave struct {
	members []int
	safe    bool // planner marked parallel AND every member binds a waveRunner
}

// span is a half-open element range in one dtype arena. The zero
// span (lo == hi) never overlaps anything.
type span struct {
	dt     tensor.DType
	lo, hi int
}

func overlaps(a, b span) bool {
	return a.dt == b.dt && a.lo < b.hi && b.lo < a.hi
}

// bufInterval returns the arena range buffer b occupies (zero interval
// for unplaced buffers, which are never live operands).
func (ex *Executor) bufInterval(b int) span {
	if b < 0 || ex.plan.Offsets[b] < 0 {
		return span{}
	}
	off := ex.plan.Offsets[b]
	return span{dt: ex.plan.DTypes[b], lo: off, hi: off + tensor.Numel(ex.plan.Shapes[b])}
}

// waveDisjoint re-checks the classic RAW/WAR/WAW conditions on arena
// storage for one planned wave: every member's output interval must be
// disjoint from every other member's reads and writes. The planner
// guarantees this by construction (same-step outputs never share
// placement, and members' inputs predate the wave); the re-check is a
// cheap bind-time assertion that demotes the wave to serial instead of
// racing if a future planner change breaks the invariant.
func (ex *Executor) waveDisjoint(members []int) bool {
	for i, mi := range members {
		w := ex.bufInterval(ex.prog.Instrs[mi].Out)
		for j, mj := range members {
			if i == j {
				continue
			}
			if overlaps(w, ex.bufInterval(ex.prog.Instrs[mj].Out)) {
				return false
			}
			for _, b := range ex.prog.Instrs[mj].In {
				if overlaps(w, ex.bufInterval(b)) {
					return false
				}
			}
		}
	}
	return true
}

// buildWaves materializes the plan's wave schedule for this binding: a
// parallel wave is kept iff every member's bound state implements
// waveRunner and the placement re-check passes. The check runs on the
// bound placement; every batch's buffers are prefixes of it, so
// disjointness holds at every n. Each view then caches the wave's
// combined job grid (view.waveGrid).
func (ex *Executor) buildWaves() {
	waves := make([]wave, 0, len(ex.plan.Schedule))
	for _, pw := range ex.plan.Schedule {
		wv := wave{members: pw.Members}
		if pw.Parallel && len(pw.Members) >= 2 {
			wv.safe = true
			for _, m := range pw.Members {
				if _, ok := ex.states[m].(waveRunner); !ok {
					wv.safe = false
					break
				}
			}
			if wv.safe && !ex.waveDisjoint(pw.Members) {
				wv.safe = false
			}
		}
		waves = append(waves, wv)
	}
	ex.waves = waves
}

// waveGrid combines the members' job grids into one pool pass: member i
// owns jobs [off[i], off[i+1]) of the combined grid.
func (v *view) waveGrid(members []int) jobGrid {
	off := make([]int, len(members)+1)
	bodies := make([]func(job, slot int), len(members))
	for i, m := range members {
		bodies[i] = v.grids[m].body
		off[i+1] = off[i] + v.grids[m].n
	}
	return jobGrid{n: off[len(members)], parallel: true, body: func(j, slot int) {
		m := 0
		for off[m+1] <= j {
			m++
		}
		bodies[m](j-off[m], slot)
	}}
}

// WaveSummary reports the member count of every scheduling wave in
// program order — introspection for tests (a count > 1 means those
// instructions may run concurrently).
func (ex *Executor) WaveSummary() []int {
	out := make([]int, len(ex.waves))
	for i := range ex.waves {
		out[i] = len(ex.waves[i].members)
	}
	return out
}

// WaveParallelRuns counts how many waves have executed their members
// concurrently since bind — the run-time gate can decline a wave (pool
// width 1), so tests use this to tell whether cross-instruction
// parallelism actually engaged.
func (ex *Executor) WaveParallelRuns() int { return ex.waveRuns }

// kernelWorkers is the parallelism actually available to this
// executor's kernels: the pool's effective width clamped by the
// executor's own WithMaxParallel bound.
func (ex *Executor) kernelWorkers() int {
	w := tensor.Parallelism()
	if ex.maxPar > 0 && ex.maxPar < w {
		w = ex.maxPar
	}
	return w
}

// splitTileM halves a GEMM site tile until the (sample × tile) job grid
// offers at least one job per available worker, so small layers still
// scale instead of leaving workers idle. Tile size never affects
// values — each site's accumulator and epilogue are element-local — so
// this is a pure scheduling choice. The floor keeps the microkernel's
// register blocking worthwhile.
func splitTileM(tm, spatial, n, workers int) int {
	for tm > 8 && n*((spatial+tm-1)/tm) < workers {
		tm >>= 1
	}
	return tm
}
