package engine

import (
	"fmt"
	"sort"
	"strings"

	"torch2chip/internal/tensor"
)

// Plan is the static buffer placement for one input shape: every buffer
// maps to an element offset inside the arena of its storage dtype.
// Flatten outputs alias their input storage, and buffers whose live
// ranges do not overlap share arena space. Storage is packed at byte
// granularity — each dtype gets its own arena, so an I8 buffer costs one
// byte per element instead of the pre-typed engine's eight, and element
// alignment is automatic.
//
// Since PR 7 the plan also carries the wave schedule it was placed for:
// placement and parallelism are co-planned, so instructions grouped into
// a parallel wave have their outputs kept in disjoint arena regions
// (liveness is computed over schedule steps, not raw program indices)
// whenever the marginal arena growth stays inside PlanConfig.ArenaGrowth
// and the wave's modeled work beats dispatch overhead.
type Plan struct {
	Shapes  [][]int        // per-buffer inferred shape
	DTypes  []tensor.DType // per-buffer storage dtype
	Offsets []int          // per-buffer element offset in its dtype arena

	// ArenaElems is the planned per-dtype arena length in elements;
	// ArenaBytes/NaiveBytes are the planned and unplanned (interpreter
	// strategy: every buffer allocated separately) footprints in bytes.
	ArenaElems [tensor.NumDTypes]int
	ArenaBytes int64
	NaiveBytes int64

	// Schedule is the wave schedule placement was computed for, covering
	// every instruction exactly once in a topological order. Entries with
	// Parallel set are dependency-free groups whose outputs occupy
	// disjoint arena regions; everything else is a program-order
	// singleton. SerialBytes is the arena footprint of the all-singleton
	// plan — the baseline the ArenaGrowth budget was measured from.
	Schedule      []PlanWave
	SerialBytes   int64
	ParallelWaves int     // schedule entries with ≥2 concurrent members
	ParallelFrac  float64 // modeled work inside parallel waves / total
	CritPathBytes int64   // Σ over steps of the largest member output
}

// PlanWave is one scheduling step: a set of mutually independent
// instructions (ascending program indices) and their modeled work.
type PlanWave struct {
	Members  []int
	Parallel bool  // members may execute concurrently
	WorkNs   int64 // modeled serial work summed over members
}

// PlannedBytes returns the byte-accurate arena footprint.
func (pl *Plan) PlannedBytes() int64 { return pl.ArenaBytes }

// String summarizes the plan for logs and the bench CLI.
func (pl *Plan) String() string {
	saved := 1 - float64(pl.ArenaBytes)/float64(pl.NaiveBytes)
	var parts []string
	for d := tensor.DType(0); d < tensor.NumDTypes; d++ {
		if n := pl.ArenaElems[d]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", d, int64(n)*int64(d.Size())))
		}
	}
	s := fmt.Sprintf("arena %d B [%s] (naive %d B, %.0f%% saved)",
		pl.ArenaBytes, strings.Join(parts, " "), pl.NaiveBytes, saved*100)
	if pl.ParallelWaves > 0 {
		s += fmt.Sprintf(" waves %d par %.0f%%", pl.ParallelWaves, pl.ParallelFrac*100)
	}
	return s
}

// interval is a buffer root's live range over schedule steps: defined
// at def (input buffer: -1), last read at use (output buffer:
// len(schedule)). elems is the widest member in elements; every member
// of a root shares one storage dtype.
type interval struct {
	def, use int
	elems    int
	dt       tensor.DType
}

// aliasCandidates returns the input buffers instr's output may share
// storage with, in preference order. Only strictly element-aligned
// writes qualify: the kernel must read in[i] (for every aliasable input)
// before writing out[i]. Conv/linear outputs may alias only the fused
// residual branch — their primary input is re-read across output sites.
func aliasCandidates(it *Instr) []int {
	switch it.Kind {
	case OpRescale, OpAdd:
		return it.In
	case OpConv, OpLinear:
		if it.FusedAdd {
			return it.In[len(it.In)-1:]
		}
	}
	return nil
}

// PlanBuffers liveness-analyzes the program for the given input shape
// and greedily packs buffers into the smallest per-dtype arenas under
// the default parallelism-aware configuration (see planBuffersAs).
// Storage dtypes come from the program's annotation (I64 everywhere
// when unannotated).
func (p *Program) PlanBuffers(inShape []int) (*Plan, error) {
	st, err := p.storage()
	if err != nil {
		return nil, err
	}
	cfg := DefaultPlanConfig()
	return p.planBuffersAs(inShape, st.dts, &cfg)
}

// PlanBuffersI64 plans with every buffer stored as I64 and a serial
// schedule, the layout non-typed kernel registries execute against and
// the baseline the typed-storage savings are measured from.
func (p *Program) PlanBuffersI64(inShape []int) (*Plan, error) {
	return p.planBuffersAs(inShape, nil, nil)
}

// planBuffersAs co-plans placement and schedule. The serial plan (every
// instruction its own step, exactly the pre-PR-7 layout) is computed
// first; with a non-nil cfg, candidate waves are then formed on the
// dependency graph and the program is re-packed with liveness over the
// wave schedule. If disjoint same-wave placement grows the arena past
// serial × (1 + ArenaGrowth), the cheapest wave (least modeled work) is
// demoted back to program-order singletons and placement reruns — the
// loop terminates at the serial plan, so the budget is always honored.
// Placement never changes values, only addresses: every schedule is a
// topological order and same-step outputs are disjoint by construction.
func (p *Program) planBuffersAs(inShape []int, dts []tensor.DType, cfg *PlanConfig) (*Plan, error) {
	shapes, err := p.InferShapes(inShape)
	if err != nil {
		return nil, err
	}
	dtypeOf := func(b int) tensor.DType {
		if dts == nil {
			return tensor.I64
		}
		return dts[b]
	}
	work := make([]int64, len(p.Instrs))
	var totalWork int64
	for i := range p.Instrs {
		work[i] = p.instrWorkNs(i, shapes)
		totalWork += work[i]
	}

	pl, err := p.packSchedule(shapes, dtypeOf, p.waveSchedule(work, nil))
	if err != nil {
		return nil, err
	}
	serialBytes := pl.ArenaBytes
	if cfg != nil {
		waves := p.candidateWaves(work, cfg)
		budget := serialBytes + int64(cfg.ArenaGrowth*float64(serialBytes))
		for len(waves) > 0 {
			wpl, err := p.packSchedule(shapes, dtypeOf, p.waveSchedule(work, waves))
			if err != nil {
				return nil, err
			}
			if wpl.ArenaBytes <= budget {
				pl = wpl
				break
			}
			// Over budget: demote the wave with the least modeled work —
			// it buys the least overlap per byte of placement cost.
			min := 0
			for i := range waves {
				if waves[i].WorkNs < waves[min].WorkNs {
					min = i
				}
			}
			waves = append(waves[:min], waves[min+1:]...)
		}
	}
	pl.SerialBytes = serialBytes
	var parWork int64
	for _, w := range pl.Schedule {
		if w.Parallel && len(w.Members) >= 2 {
			pl.ParallelWaves++
			parWork += w.WorkNs
		}
	}
	if totalWork > 0 {
		pl.ParallelFrac = float64(parWork) / float64(totalWork)
	}
	return pl, nil
}

// waveKind reports whether an op kind can carry wave membership: only
// the prepacked GEMM families bind states that run confined to one pool
// slot (waveRunner); grouping anything else would disable its in-place
// aliasing for no scheduling gain. Flatten in particular must never
// join a wave — its kernel is a no-op that relies on the alias.
func waveKind(k OpKind) bool {
	switch k {
	case OpConv, OpLinear, OpMatMul:
		return true
	}
	return false
}

// candidateWaves forms parallel wave candidates on the true dependency
// graph: walking program order, an unassigned GEMM instruction anchors
// a wave, and any later unassigned GEMM joins iff every one of its
// inputs is produced before the anchor. Members are therefore mutually
// independent (each non-anchor's inputs predate the anchor, and buffer
// IDs are SSA), so hoisting them to the anchor's step preserves every
// data dependency. Waves below cfg.MinWaveNs of modeled work are not
// worth a dispatch and are dropped.
func (p *Program) candidateWaves(work []int64, cfg *PlanConfig) []PlanWave {
	producer := p.producerOf()
	assigned := make([]bool, len(p.Instrs))
	var waves []PlanWave
	for i := range p.Instrs {
		if assigned[i] || !waveKind(p.Instrs[i].Kind) {
			continue
		}
		members := []int{i}
		w := work[i]
		for j := i + 1; j < len(p.Instrs); j++ {
			if assigned[j] || !waveKind(p.Instrs[j].Kind) {
				continue
			}
			free := true
			for _, b := range p.Instrs[j].In {
				if producer[b] >= i {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			members = append(members, j)
			w += work[j]
		}
		if len(members) < 2 || w < cfg.MinWaveNs {
			continue
		}
		for _, m := range members {
			assigned[m] = true
		}
		waves = append(waves, PlanWave{Members: members, Parallel: true, WorkNs: w})
	}
	return waves
}

// waveSchedule expands a set of parallel waves into a full schedule:
// walking program order, a wave is emitted at its anchor's position
// (members hoist up to the anchor), and every other instruction keeps
// its program-order position as a singleton step. With no waves the
// schedule is exactly program order, reproducing the serial plan.
func (p *Program) waveSchedule(work []int64, waves []PlanWave) []PlanWave {
	memberOf := make([]int, len(p.Instrs))
	for i := range memberOf {
		memberOf[i] = -1
	}
	for wi := range waves {
		for _, m := range waves[wi].Members {
			memberOf[m] = wi
		}
	}
	sched := make([]PlanWave, 0, len(p.Instrs))
	emitted := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		if emitted[i] {
			continue
		}
		if wi := memberOf[i]; wi >= 0 {
			for _, m := range waves[wi].Members {
				emitted[m] = true
			}
			sched = append(sched, waves[wi])
			continue
		}
		emitted[i] = true
		sched = append(sched, PlanWave{Members: []int{i}, WorkNs: work[i]})
	}
	return sched
}

// packSchedule liveness-analyzes the program over schedule steps and
// greedily packs buffers into the smallest per-dtype arenas: buffers
// are placed in decreasing size order at the lowest offset not
// overlapping any already-placed buffer of the same dtype with an
// intersecting live range. Flatten outputs alias their source, and
// elementwise outputs (rescale, residual add, fused-add epilogues) are
// written in place over a dying input of the same dtype — except for
// parallel-wave members, whose outputs must not overwrite storage
// another member may still be reading concurrently. Outputs of a
// parallel wave are defined at the same step, so the closed-interval
// overlap test forces them into disjoint regions.
func (p *Program) packSchedule(shapes [][]int, dtypeOf func(int) tensor.DType, sched []PlanWave) (*Plan, error) {
	stepOf := make([]int, len(p.Instrs))
	inPar := make([]bool, len(p.Instrs))
	for s := range sched {
		par := sched[s].Parallel && len(sched[s].Members) >= 2
		for _, m := range sched[s].Members {
			stepOf[m] = s
			inPar[m] = par
		}
	}
	// lastUse[b]: step of the last instruction reading buffer b
	// (len(sched) for the program output, -1 for never-read).
	lastUse := make([]int, p.NumBufs)
	for i := range lastUse {
		lastUse[i] = -1
	}
	for idx := range p.Instrs {
		for _, b := range p.Instrs[idx].In {
			if s := stepOf[idx]; s > lastUse[b] {
				lastUse[b] = s
			}
		}
	}
	lastUse[p.Output] = len(sched)

	// Storage roots, resolved in one schedule-ordered walk: flatten
	// aliases collapse onto their source, and elementwise outputs adopt
	// a dying input's root when the storage dtypes match (aliasing
	// across element widths would make byte offsets diverge per
	// element). rootUse tracks, per root, the last read over every
	// member merged so far — a candidate is dead after step s iff its
	// root's use is ≤ s.
	root := make([]int, p.NumBufs)
	for i := range root {
		root[i] = i
	}
	rootUse := make(map[int]int, p.NumBufs)
	rootUse[p.Input] = lastUse[p.Input]
	extend := func(r, use int) {
		if u, ok := rootUse[r]; !ok || use > u {
			rootUse[r] = use
		}
	}
	for s := range sched {
		for _, idx := range sched[s].Members {
			it := &p.Instrs[idx]
			out := it.Out
			if it.Kind == OpFlatten {
				if dtypeOf(out) != dtypeOf(it.In[0]) {
					return nil, fmt.Errorf("engine: flatten %s output dtype %s differs from input %s",
						it.Name, dtypeOf(out), dtypeOf(it.In[0]))
				}
				root[out] = root[it.In[0]]
				extend(root[out], lastUse[out])
				continue
			}
			// In-place placement belongs to the optimization layer
			// (unfused programs keep the PR-1 plan so baselines stay
			// comparable), and a parallel-wave member must keep its own
			// storage — overwriting a dying input in place could race
			// another member reading it at the same step.
			if p.OptLevel < OptFuse || inPar[idx] {
				extend(root[out], lastUse[out])
				continue
			}
			for _, c := range aliasCandidates(it) {
				rc := root[c]
				if rootUse[rc] > s {
					continue // still read after this step
				}
				if dtypeOf(c) != dtypeOf(out) {
					continue // different element widths cannot share bytes
				}
				if it.Kind == OpConv || it.Kind == OpLinear {
					// The candidate is the fused residual branch; the primary
					// operands are re-read across output sites and must never
					// share its storage.
					conflict := false
					for _, other := range it.In[:len(it.In)-1] {
						if root[other] == rc {
							conflict = true
							break
						}
					}
					if conflict {
						continue
					}
				}
				root[out] = rc
				break
			}
			extend(root[out], lastUse[out])
		}
	}

	// Liveness per root: min def, max use over all aliased buffers.
	iv := make(map[int]*interval)
	touch := func(buf, at int, isDef bool) {
		r := root[buf]
		e, ok := iv[r]
		if !ok {
			e = &interval{def: at, use: at, dt: dtypeOf(buf)}
			iv[r] = e
		}
		if isDef && at < e.def {
			e.def = at
		}
		if at > e.use {
			e.use = at
		}
		if n := tensor.Numel(shapes[buf]); n > e.elems {
			e.elems = n
		}
	}
	touch(p.Input, -1, true)
	for idx, it := range p.Instrs {
		for _, b := range it.In {
			touch(b, stepOf[idx], false)
		}
		touch(it.Out, stepOf[idx], true)
	}
	// The output buffer must survive past the last step so the caller
	// can read it after Execute returns.
	touch(p.Output, len(sched), false)

	// Greedy placement per dtype arena, largest first.
	roots := make([]int, 0, len(iv))
	var naive int64
	for r, e := range iv {
		roots = append(roots, r)
		naive += int64(e.elems) * int64(e.dt.Size())
	}
	sort.Slice(roots, func(a, b int) bool {
		if iv[roots[a]].elems != iv[roots[b]].elems {
			return iv[roots[a]].elems > iv[roots[b]].elems
		}
		return roots[a] < roots[b]
	})
	type placed struct{ off, elems, def, use int }
	placements := map[tensor.DType][]placed{}
	offsetOf := make(map[int]int, len(roots))
	pl := &Plan{Shapes: shapes, DTypes: make([]tensor.DType, p.NumBufs), Offsets: make([]int, p.NumBufs), NaiveBytes: naive}
	for _, r := range roots {
		e := iv[r]
		// Collect placed same-dtype buffers whose live ranges overlap.
		var busy []placed
		for _, q := range placements[e.dt] {
			if e.def <= q.use && q.def <= e.use {
				busy = append(busy, q)
			}
		}
		sort.Slice(busy, func(a, b int) bool { return busy[a].off < busy[b].off })
		off := 0
		for _, q := range busy {
			if off+e.elems <= q.off {
				break
			}
			if q.off+q.elems > off {
				off = q.off + q.elems
			}
		}
		offsetOf[r] = off
		placements[e.dt] = append(placements[e.dt], placed{off: off, elems: e.elems, def: e.def, use: e.use})
		if off+e.elems > pl.ArenaElems[e.dt] {
			pl.ArenaElems[e.dt] = off + e.elems
		}
	}
	for d := tensor.DType(0); d < tensor.NumDTypes; d++ {
		pl.ArenaBytes += int64(pl.ArenaElems[d]) * int64(d.Size())
	}
	for b := 0; b < p.NumBufs; b++ {
		if shapes[b] == nil {
			pl.Offsets[b] = -1
			continue
		}
		pl.DTypes[b] = dtypeOf(b)
		pl.Offsets[b] = offsetOf[root[b]]
	}
	pl.Schedule = sched
	for s := range sched {
		var widest int64
		for _, m := range sched[s].Members {
			out := p.Instrs[m].Out
			if b := int64(tensor.Numel(shapes[out])) * int64(dtypeOf(out).Size()); b > widest {
				widest = b
			}
		}
		pl.CritPathBytes += widest
	}
	return pl, nil
}
