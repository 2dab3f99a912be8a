package engine

// The optimization layer between lowering and planning: a fusion pass
// that rewrites the Program so memory-bound epilogue ops (bare rescales,
// residual adds, flatten reshapes) ride along with the instruction that
// produces their input instead of running as separate arena-to-arena
// passes. Every fold preserves the per-element value pipeline exactly —
// own scaler → folded rescale → folded add/shift/clamp — so fused
// programs stay bit-identical to IntModel.Forward, which the tests
// enforce on the whole model zoo.

// OptLevel selects how aggressively a lowered program is rewritten.
type OptLevel int

const (
	// OptNone leaves the lowered program untouched (the PR-1 engine).
	OptNone OptLevel = 0
	// OptFuse runs the epilogue fusion pass: rescale folding, residual
	// add fusion, and flatten folding.
	OptFuse OptLevel = 1
)

// FusionStats reports what the pass changed, for logs and the bench
// harness's machine-readable trajectory.
type FusionStats struct {
	InstrsBefore  int `json:"instrs_before"`
	InstrsAfter   int `json:"instrs_after"`
	BuffersBefore int `json:"buffers_before"`
	BuffersAfter  int `json:"buffers_after"`

	FoldedRescales int `json:"folded_rescales"`
	FusedAdds      int `json:"fused_adds"`
	FoldedFlattens int `json:"folded_flattens"`
}

// Optimize rewrites p at the given level and returns a new program; the
// input program is not modified (interpreter parity baselines keep it).
func Optimize(p *Program, lvl OptLevel) *Program {
	q, _ := OptimizeStats(p, lvl)
	return q
}

// OptimizeStats is Optimize also returning what the pass did.
func OptimizeStats(p *Program, lvl OptLevel) (*Program, FusionStats) {
	q := cloneProgram(p)
	st := FusionStats{
		InstrsBefore:  len(q.Instrs),
		BuffersBefore: countLiveBuffers(q),
	}
	if lvl >= OptFuse {
		st.FoldedRescales = q.foldRescales()
		st.FusedAdds = q.fuseAdds()
		st.FoldedFlattens = q.foldFlattens()
		q.OptLevel = OptFuse
	}
	st.InstrsAfter = len(q.Instrs)
	st.BuffersAfter = countLiveBuffers(q)
	return q, st
}

// cloneProgram copies the instruction list (weights and scalers are
// shared — they are read-only at execution time). No derived cache is
// carried over: each is keyed by instruction index, which the fusion
// pass renumbers, and fusion changes the rewritten buffers' ranges.
func cloneProgram(p *Program) *Program {
	q := *p
	q.pack, q.stor, q.spar = nil, nil, nil
	q.Instrs = make([]Instr, len(p.Instrs))
	for i := range p.Instrs {
		q.Instrs[i] = p.Instrs[i]
		q.Instrs[i].In = append([]int(nil), p.Instrs[i].In...)
	}
	return &q
}

// countLiveBuffers counts buffers still referenced by the instruction
// list (plus the program input), i.e. the planner's working set.
func countLiveBuffers(p *Program) int {
	seen := make(map[int]bool, p.NumBufs)
	seen[p.Input] = true
	for i := range p.Instrs {
		it := &p.Instrs[i]
		for _, b := range it.In {
			seen[b] = true
		}
		seen[it.Out] = true
	}
	return len(seen)
}

// producerOf maps each buffer to the index of the instruction writing it
// (-1 for the program input and for eliminated buffers).
func (p *Program) producerOf() []int {
	prod := make([]int, p.NumBufs)
	for i := range prod {
		prod[i] = -1
	}
	for i := range p.Instrs {
		prod[p.Instrs[i].Out] = i
	}
	return prod
}

// readerCount counts instruction reads per buffer; the program output
// gets an extra count for its external consumer, so a fold is only legal
// on buffers with exactly one (internal) reader.
func (p *Program) readerCount() []int {
	rc := make([]int, p.NumBufs)
	for i := range p.Instrs {
		for _, b := range p.Instrs[i].In {
			rc[b]++
		}
	}
	rc[p.Output]++
	return rc
}

// removeInstr deletes the instruction at idx, preserving order.
func (p *Program) removeInstr(idx int) {
	p.Instrs = append(p.Instrs[:idx], p.Instrs[idx+1:]...)
}

// foldRescales folds each bare OpRescale whose input is produced by a
// Conv/Linear and read by nothing else into that producer's epilogue:
// the producer requantizes twice per element while the value is hot
// instead of a second full pass over arena memory. Returns folds done.
func (p *Program) foldRescales() int {
	folds := 0
	for changed := true; changed; {
		changed = false
		prod := p.producerOf()
		readers := p.readerCount()
		for i := 0; i < len(p.Instrs); i++ {
			r := &p.Instrs[i]
			if r.Kind != OpRescale || r.FusedAdd || r.FlattenOut {
				continue
			}
			src := r.In[0]
			j := prod[src]
			if j < 0 || readers[src] != 1 {
				continue
			}
			pr := &p.Instrs[j]
			if pr.Kind != OpConv && pr.Kind != OpLinear {
				continue
			}
			if pr.FusedRescale != nil || pr.FusedAdd || pr.FlattenOut {
				continue
			}
			pr.FusedRescale = r.Scaler
			pr.Out = r.Out
			p.removeInstr(i)
			folds++
			changed = true
			break
		}
	}
	return folds
}

// fuseAdds folds each OpAdd into the instruction immediately before it
// when that instruction produces one of the add's branches and nothing
// else reads it. The producer computes its value, adds the other
// branch's element, shifts back and clamps, and writes the block output
// directly — the residual epilogue costs zero extra memory passes.
func (p *Program) fuseAdds() int {
	folds := 0
	for changed := true; changed; {
		changed = false
		readers := p.readerCount()
		for i := 1; i < len(p.Instrs); i++ {
			a := &p.Instrs[i]
			if a.Kind != OpAdd {
				continue
			}
			pr := &p.Instrs[i-1]
			if pr.Kind != OpConv && pr.Kind != OpLinear && pr.Kind != OpRescale {
				continue
			}
			if pr.FusedAdd || pr.FlattenOut {
				continue
			}
			var other int
			switch pr.Out {
			case a.In[0]:
				other = a.In[1]
			case a.In[1]:
				other = a.In[0]
			default:
				continue
			}
			if readers[pr.Out] != 1 || other == pr.Out {
				continue
			}
			pr.FusedAdd = true
			pr.In = append(pr.In, other)
			pr.Shift, pr.ClampLo, pr.ClampHi = a.Shift, a.ClampLo, a.ClampHi
			pr.Out = a.Out
			p.removeInstr(i)
			folds++
			changed = true
			break
		}
	}
	return folds
}

// foldFlattens folds each OpFlatten into its producer: the producer
// writes the 2-D view directly (data is contiguous either way), so the
// reshape instruction disappears from the dispatch loop.
func (p *Program) foldFlattens() int {
	folds := 0
	for changed := true; changed; {
		changed = false
		prod := p.producerOf()
		readers := p.readerCount()
		for i := 0; i < len(p.Instrs); i++ {
			f := &p.Instrs[i]
			if f.Kind != OpFlatten {
				continue
			}
			src := f.In[0]
			j := prod[src]
			if j < 0 || readers[src] != 1 {
				continue
			}
			pr := &p.Instrs[j]
			if pr.FlattenOut {
				continue
			}
			pr.FlattenOut = true
			pr.Out = f.Out
			p.removeInstr(i)
			folds++
			changed = true
			break
		}
	}
	return folds
}
