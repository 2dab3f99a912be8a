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
// ranges over program order do not overlap share arena space. Storage is
// packed at byte granularity — each dtype gets its own arena, so an I8
// buffer costs one byte per element instead of the pre-typed engine's
// eight, and element alignment is automatic. A plan is a pure function
// of the program, the input shape and the storage dtypes.
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
}

// String summarizes the plan for logs and the bench CLI.
func (pl *Plan) String() string {
	saved := 1 - float64(pl.ArenaBytes)/float64(pl.NaiveBytes)
	var parts []string
	for d := tensor.DType(0); d < tensor.NumDTypes; d++ {
		if n := pl.ArenaElems[d]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", d, int64(n)*int64(d.Size())))
		}
	}
	return fmt.Sprintf("arena %d B [%s] (naive %d B, %.0f%% saved)",
		pl.ArenaBytes, strings.Join(parts, " "), pl.NaiveBytes, saved*100)
}

// interval is a buffer root's live range over program order: defined
// at instruction def (input buffer: -1), last read at instruction use
// (output buffer: len(Instrs)). elems is the widest member in elements;
// every member of a root shares one storage dtype.
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
// and greedily packs buffers into the smallest per-dtype arenas (see
// packProgram), at the storage dtypes derived from the program.
func (p *Program) PlanBuffers(inShape []int) (*Plan, error) {
	st, err := p.storage()
	if err != nil {
		return nil, err
	}
	return p.packProgram(inShape, st.dts)
}

// PlanBuffersI64 plans with every buffer stored as I64, the layout
// non-typed kernel registries execute against and the baseline the
// typed-storage savings are measured from.
func (p *Program) PlanBuffersI64(inShape []int) (*Plan, error) {
	return p.packProgram(inShape, nil)
}

// packProgram liveness-analyzes the program in program order and
// greedily packs buffers into the smallest per-dtype arenas: buffers
// are placed in decreasing size order at the lowest offset not
// overlapping any already-placed buffer of the same dtype with an
// intersecting live range. Flatten outputs alias their source, and
// elementwise outputs (rescale, residual add, fused-add epilogues) are
// written in place over a dying input of the same dtype. Storage dtypes
// are dts (nil: I64 everywhere).
func (p *Program) packProgram(inShape []int, dts []tensor.DType) (*Plan, error) {
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
	// lastUse[b]: index of the last instruction reading buffer b
	// (len(Instrs) for the program output, -1 for never-read).
	lastUse := make([]int, p.NumBufs)
	for i := range lastUse {
		lastUse[i] = -1
	}
	for idx := range p.Instrs {
		for _, b := range p.Instrs[idx].In {
			lastUse[b] = idx
		}
	}
	lastUse[p.Output] = len(p.Instrs)

	// Storage roots, resolved in one program-order walk: flatten
	// aliases collapse onto their source, and elementwise outputs adopt
	// a dying input's root when the storage dtypes match (aliasing
	// across element widths would make byte offsets diverge per
	// element). rootUse tracks, per root, the last read over every
	// member merged so far — a candidate is dead after instruction idx
	// iff its root's use is ≤ idx.
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
	for idx := range p.Instrs {
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
		// In-place placement belongs to the optimization layer: unfused
		// programs keep the unaliased plan so baselines stay comparable.
		if p.OptLevel < OptFuse {
			extend(root[out], lastUse[out])
			continue
		}
		for _, c := range aliasCandidates(it) {
			rc := root[c]
			if rootUse[rc] > idx {
				continue // still read after this instruction
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
			touch(b, idx, false)
		}
		touch(it.Out, idx, true)
	}
	// The output buffer must survive past the last instruction so the
	// caller can read it after Execute returns.
	touch(p.Output, len(p.Instrs), false)

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
	return pl, nil
}
