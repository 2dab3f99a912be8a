package engine

// Sparsity-aware prepacking: the pruning toolkit (internal/prune) leaves
// exact integer zeros in exported conv/linear weights, and a zero weight
// contributes exactly zero to an integer dot product — so a kernel that
// never visits it produces bit-identical accumulators in the same
// per-channel accumulation order, just without the identity terms. The
// bind-time analysis here scans each instruction's weights once and
// records, per weight panel (panelW output channels), which K positions
// are live; the prepacked GEMM inner loops (int32-panel and SWAR) then
// iterate compressed live-K lists instead of the full K range
// (CSR-over-panels). Weights with N:M group structure (prune.NM) take a
// packed microkernel that stores only the n live values + 2-bit indices
// per m-group. The same analysis feeds the work model: modeled MACs for
// conv/linear scale by the effective-MAC fraction of the strategy the
// fast kernels bind, so EstimateCost and the modeled column of the
// per-instruction record (Executor.Explain) stay honest on sparse models.
//
// Liveness granularity is the channel *pair*, matching the SWAR lane
// pairing: a K position is dead for pair (r, r+1) of a panel when both
// channels' weights are zero there. The int32-panel kernel uses the same
// pair lists so one analysis serves both paths. At unstructured sparsity
// s the expected pair-dead fraction is s², e.g. ~49% of inner-loop trips
// skipped at 70% sparsity.
//
// SWAR under skipping: the SWAR cores return S' = Σ a'·w over biased
// bytes, and the bias folds the raw dot product's S = S' − ba·Σw(channel)
// in. SWAR weights pack signed and unbiased, so a skipped (dead) position
// packs the word 0 exactly in both lanes: omitting it drops nothing from
// S', and the same folded bias holds over the live list — dead positions
// have raw w = 0, so Σw is unchanged. Lane legality tightens to
// maxPairLive·aSpan·wAbs ≤ 2³¹−1, so weights whose full-K sum would
// overflow a lane can still take the SWAR path once pruned
// (storageInfo.swarSparse).

import "torch2chip/internal/tensor"

// sparseStrategy is the sparse-kernel decision for one instruction.
type sparseStrategy uint8

const (
	spDense sparseStrategy = iota // no sparse kernel; effective MACs = dense
	spSkip                        // pair-granular zero-panel skipping
	spNM                          // N:M group-packed microkernel
)

func (s sparseStrategy) String() string {
	switch s {
	case spSkip:
		return "skip"
	case spNM:
		return "nm"
	}
	return "dense"
}

// nmM is the N:M group width the packed microkernel supports (prune.NM
// defaults to 2:4; any N ≤ 2 per aligned 4-group qualifies).
const nmM = 4

// panelSkip holds the per-panel liveness of one instruction's weights:
// a per-(panel, K) channel bitmap plus compressed live-K lists per
// channel pair, shared read-only by every executor bound to the program.
type panelSkip struct {
	// mask[pb*k+j] bit r is set when channel pb·panelW+r has a nonzero
	// weight at position j.
	mask []uint8
	// liveA/liveB concatenate each panel's live positions for channel
	// pairs (0,1) and (2,3); offA/offB (length np+1) delimit panels.
	liveA, liveB []int32
	offA, offB   []int32
	// maxPairLive is the largest live count over all (panel, pair)
	// streams — the K that bounds the sparse SWAR lane sums.
	maxPairLive int64
	// liveMacs counts channel-MAC positions the pair-skipping kernels
	// execute per output site; denseMacs = o·k.
	liveMacs, denseMacs int64
	// csrEnt/csrOff are the channel-granular CSR form: per output
	// channel, interleaved (position, weight) int32 pairs in increasing
	// position order; csrOff (length o+1) counts entries, so channel
	// oc's stream is csrEnt[2·csrOff[oc] : 2·csrOff[oc+1]]. The typed
	// int32 kernels use this form — a channel skips every one of its own
	// zeros (fraction s), where the lane-paired lists only skip
	// positions dead for both channels of a pair (fraction s²).
	csrEnt, csrOff []int32
	// csrMacs counts channel-MAC positions the CSR kernels execute per
	// output site (= total nonzero weights).
	csrMacs int64
}

// nmPack is the N:M-packed form of one instruction's weights: per output
// channel, per aligned K-group of nmM, n packed slots e = w·4 + idx —
// the int8-range weight in the upper bits (recovered by arithmetic
// shift) and the 2-bit in-group index in the lower two (masked &3 at
// use, which proves the group bound to the compiler). One sequential
// int32 stream per channel, half the volume of the CSR form. Groups
// with fewer than n nonzeros pad with e = 0 (weight 0 at index 0) — an
// exact-zero contribution, preserving bit-identity.
type nmPack struct {
	n, groups int
	packed    []int32
}

// instrSparsity is the cached per-instruction sparsity analysis.
type instrSparsity struct {
	strategy       sparseStrategy
	wZeros, wCount int64
	// maxRowNnz is the largest per-output-channel nonzero count — the
	// effective K for the int32 accumulator bound (zero weights never
	// contribute to any partial sum, dense or sparse kernel alike).
	maxRowNnz int64
	// maxPairLive bounds the sparse SWAR lane sums (0 when no skip
	// structure was built).
	maxPairLive int64
	// effNum/effDen is the effective-MAC fraction of the strategy's
	// kernel (liveMacs/denseMacs for skip, n/m for N:M, 1/1 for dense).
	effNum, effDen int64
	skip           *panelSkip
	nm             *nmPack
}

// sparsity resolves (and caches) the per-instruction weight-sparsity
// analysis. Like the storage plan it relies on the Program being
// immutable; a hot reload builds a fresh Program.
func (p *Program) sparsity() []instrSparsity {
	packInitMu.Lock()
	sp := p.spar
	packInitMu.Unlock()
	if sp != nil {
		return sp
	}
	sp = make([]instrSparsity, len(p.Instrs))
	for i := range p.Instrs {
		sp[i] = analyzeInstr(&p.Instrs[i])
	}
	packInitMu.Lock()
	if p.spar == nil {
		p.spar = sp
	} else {
		sp = p.spar
	}
	packInitMu.Unlock()
	return sp
}

// Per-executed-MAC cost constants of the GEMM inner loops, measured by
// BenchmarkSparseKernels on the SWAR reference machine (relative units;
// dense SWAR executes two channel-MACs per multiply, the sparse loops
// pay stream/indirection overhead per visited position). sparsePlan runs
// an argmin over these to bind the modeled-fastest legal kernel per
// instruction. The measured per-MAC costs of the three sparse loops land
// within noise of each other (≈20 units), so what separates them is how
// many MACs each executes: channel-granular CSR visits exactly the
// nonzeros (skips the full zero fraction s), the pair live lists visit
// the union of each channel pair's positions (s² on independent
// patterns, collapsing to s when the pair shares positions), and the N:M
// pack visits n/M. Ties are broken toward the smaller memory stream —
// see sparsePlan.
const (
	costDenseSwar = 10 // per dense MAC, lane-packed dual kernel
	costDenseI32  = 21 // per dense MAC, int32 panel kernel
	costPairSwar  = 20 // per live pair-list MAC, skipping SWAR kernel
	costCSR       = 20 // per nonzero MAC, channel CSR kernel
)

// minSkipSparsity is the weight-sparsity floor below which analyzeInstr
// builds no CSR/pair structure at all: the modeled win over the dense
// panel is marginal there (≤1.4x against the int32 panel, a loss against
// the SWAR kernel until s > 0.5), not worth duplicating the weights into
// an indexed form the plan would rarely bind.
const minSkipSparsity = 0.25

// Per-slot MAC cost of the N:M kernel, indexed by n. The per-group
// decode (2-bit index extract) amortizes over n entries, so 1:4 runs
// hotter per slot than 2:4, where the pack measures even with CSR and
// wins the tie-break on its halved weight stream (one packed word per
// nonzero vs an interleaved position/value pair).
var costNM = [nmM + 1]int64{1: 21, 2: 20}

// sparsePick names the kernel family sparsePlan selects.
type sparsePick uint8

const (
	pickDense sparsePick = iota // dense kernels (SWAR if legal, else panel)
	pickCSR
	pickNM
	pickPairSwar
)

func (p sparsePick) String() string {
	switch p {
	case pickCSR:
		return "csr"
	case pickNM:
		return "nm"
	case pickPairSwar:
		return "pair-swar"
	}
	return "dense"
}

// sparsePlan picks the cheapest legal GEMM for an instruction with the
// given analysis, using the measured per-MAC cost table, and returns the
// executed-MAC fraction (effNum/effDen of dense) of the choice. The
// legality flags mirror the executor's: typed (int32-accumulate path),
// swar (dense full-K lane bound), swarSparse (live-K lane bound).
func sparsePlan(sp *instrSparsity, typed, swar, swarSparse bool) (sparsePick, int64, int64) {
	dense := sp.wCount
	if !typed || dense == 0 || (sp.skip == nil && sp.nm == nil) {
		return pickDense, 1, 1
	}
	pick, num, den := pickDense, int64(1), int64(1)
	cost := dense * costDenseI32
	if swar {
		cost = dense * costDenseSwar
	}
	// Sparse candidates are tried in order of decreasing memory stream
	// and each takes the bind at equal-or-better modeled time, so ties
	// resolve toward the lighter-traffic kernel: the pair-skipping SWAR
	// loop reads byte panels (a quarter of the CSR path's int32
	// activation traffic), and the N:M pack halves the weight words.
	if sp.skip != nil {
		if c := sp.skip.csrMacs * costCSR; c <= cost {
			pick, num, den, cost = pickCSR, sp.skip.csrMacs, dense, c
		}
		if swar || swarSparse {
			if c := sp.skip.liveMacs * costPairSwar; c <= cost {
				pick, num, den, cost = pickPairSwar, sp.skip.liveMacs, dense, c
			}
		}
	}
	if sp.nm != nil {
		if c := dense * int64(sp.nm.n) * costNM[sp.nm.n] / nmM; c <= cost {
			pick, num, den = pickNM, int64(sp.nm.n), nmM
		}
	}
	return pick, num, den
}

// analyzeInstr scans one instruction's weights and builds every sparse
// structure worth binding — the channel CSR / pair live lists when the
// modeled CSR time beats the dense int32 panel, and the N:M pack when
// the weights carry group structure. sparsePlan later picks among them
// per the legality flags; near-dense weights build nothing and stay on
// the straight-line dense loops.
func analyzeInstr(it *Instr) instrSparsity {
	sp := instrSparsity{effNum: 1, effDen: 1}
	if (it.Kind != OpConv && it.Kind != OpLinear) || it.W == nil || it.W.Numel() == 0 {
		return sp
	}
	o := it.W.Shape[0]
	k := it.W.Numel() / o
	w := it.W.Data
	var nonzero int64
	for oc := 0; oc < o; oc++ {
		var nnz int64
		for _, v := range w[oc*k : (oc+1)*k] {
			if v != 0 {
				nnz++
			}
		}
		nonzero += nnz
		if nnz > sp.maxRowNnz {
			sp.maxRowNnz = nnz
		}
	}
	sp.wCount = int64(o) * int64(k)
	sp.wZeros = sp.wCount - nonzero
	if sp.wZeros == 0 || (it.Kind == OpConv && it.P.Groups > 1) {
		// Dense weights, or a grouped conv (the direct kernels have no
		// skip structure): effective = dense.
		return sp
	}
	if nonzero*costCSR < sp.wCount*costDenseI32 &&
		float64(sp.wZeros) >= minSkipSparsity*float64(sp.wCount) {
		ps := buildPanelSkip(w, o, k)
		sp.skip = ps
		sp.maxPairLive = ps.maxPairLive
		sp.strategy = spSkip
		sp.effNum, sp.effDen = ps.csrMacs, ps.denseMacs
	}
	// N:M detection: K divisible by the group width and every aligned
	// group of every row holds ≤ n nonzeros, for the smallest n ∈ {1, 2}.
	if nmN := detectNM(w, o, k); nmN > 0 {
		sp.nm = buildNMPack(w, o, k, nmN)
		sp.strategy = spNM
		sp.effNum, sp.effDen = int64(nmN), nmM
	}
	return sp
}

// buildPanelSkip derives the per-panel channel bitmap and the compressed
// pair live lists from row-major [o][k] weights.
func buildPanelSkip(w []int64, o, k int) *panelSkip {
	np := (o + panelW - 1) / panelW
	ps := &panelSkip{
		mask:      make([]uint8, np*k),
		offA:      make([]int32, np+1),
		offB:      make([]int32, np+1),
		csrOff:    make([]int32, o+1),
		denseMacs: int64(o) * int64(k),
	}
	for oc := 0; oc < o; oc++ {
		for j, v := range w[oc*k : (oc+1)*k] {
			if v != 0 {
				ps.csrEnt = append(ps.csrEnt, int32(j), int32(v))
			}
		}
		ps.csrOff[oc+1] = int32(len(ps.csrEnt) / 2)
	}
	ps.csrMacs = int64(len(ps.csrEnt) / 2)
	for pb := 0; pb < np; pb++ {
		mrow := ps.mask[pb*k : (pb+1)*k]
		oc0 := pb * panelW
		for r := 0; r < panelW && oc0+r < o; r++ {
			row := w[(oc0+r)*k : (oc0+r+1)*k]
			bit := uint8(1) << r
			for j, v := range row {
				if v != 0 {
					mrow[j] |= bit
				}
			}
		}
		chA := o - oc0
		if chA > 2 {
			chA = 2
		}
		chB := o - oc0 - 2
		if chB < 0 {
			chB = 0
		} else if chB > 2 {
			chB = 2
		}
		for j, m := range mrow {
			if m&0b0011 != 0 {
				ps.liveA = append(ps.liveA, int32(j))
			}
			if m&0b1100 != 0 {
				ps.liveB = append(ps.liveB, int32(j))
			}
		}
		nA := int64(len(ps.liveA)) - int64(ps.offA[pb])
		nB := int64(len(ps.liveB)) - int64(ps.offB[pb])
		ps.offA[pb+1] = int32(len(ps.liveA))
		ps.offB[pb+1] = int32(len(ps.liveB))
		ps.liveMacs += nA*int64(chA) + nB*int64(chB)
		if chA > 0 && nA > ps.maxPairLive {
			ps.maxPairLive = nA
		}
		if chB > 0 && nB > ps.maxPairLive {
			ps.maxPairLive = nB
		}
	}
	return ps
}

// detectNM reports the smallest n ∈ {1, 2} such that every aligned
// nmM-group of every weight row has ≤ n nonzeros, or 0 when the weights
// have no exploitable N:M structure (K not divisible, or too dense).
func detectNM(w []int64, o, k int) int {
	if k%nmM != 0 {
		return 0
	}
	need := 0
	for oc := 0; oc < o; oc++ {
		row := w[oc*k : (oc+1)*k]
		for g := 0; g < k; g += nmM {
			nnz := 0
			for _, v := range row[g : g+nmM] {
				if v != 0 {
					nnz++
				}
			}
			if nnz > need {
				need = nnz
				if need > 2 {
					return 0
				}
			}
		}
	}
	if need == 0 {
		need = 1 // all-zero weights: pack a single zero slot per group
	}
	return need
}

// buildNMPack packs row-major [o][k] weights into the N:M microkernel
// layout: per channel, per K-group, n packed (weight·4 + index) slots in
// increasing index order — accumulation order matches the dense loop
// minus its zero terms.
func buildNMPack(w []int64, o, k, n int) *nmPack {
	groups := k / nmM
	nm := &nmPack{
		n:      n,
		groups: groups,
		packed: make([]int32, o*groups*n),
	}
	for oc := 0; oc < o; oc++ {
		for g := 0; g < groups; g++ {
			p := (oc*groups + g) * n
			t := 0
			for j := 0; j < nmM && t < n; j++ {
				if v := w[oc*k+g*nmM+j]; v != 0 {
					nm.packed[p+t] = int32(v)<<2 | int32(j)
					t++
				}
			}
		}
	}
	return nm
}

// sparseInstr returns the instruction's sparsity analysis when the
// registry exploits sparsity and a sparse kernel applies, nil otherwise.
func (ex *Executor) sparseInstr(idx int) *instrSparsity {
	if !ex.reg.sparse {
		return nil
	}
	sp := &ex.prog.sparsity()[idx]
	if sp.strategy == spDense {
		return nil
	}
	return sp
}

// sparsePickFor resolves the cost-driven kernel choice for instruction
// idx under this executor's registry and storage plan.
func (ex *Executor) sparsePickFor(idx int) sparsePick {
	sp := ex.sparseInstr(idx)
	if sp == nil {
		return pickDense
	}
	pick, _, _ := sparsePlan(sp, ex.typedInstr(idx), ex.swarInstr(idx), ex.swarSparseInstr(idx))
	return pick
}

// swarSparseInstr reports whether instruction idx may take the SWAR path
// under the *sparse* lane bound (live-K), even when the dense full-K
// bound fails. Only the skipping kernel is legal then.
func (ex *Executor) swarSparseInstr(idx int) bool {
	return ex.reg.swar && ex.reg.sparse && ex.stor != nil && ex.stor.swarSparse[idx]
}

// gemmPanelsCSR is the channel-granular sparse microkernel: each
// output channel streams its own (position, weight) entries, so it skips
// the full weight-sparsity fraction s (the pair lists only skip s²).
// Entries stream sequentially; only the activation loads are indirect.
// Four sites per step amortize each entry load over four MACs. Writes
// the same [channel][site] accumulator layout as gemmPanels.
func gemmPanelsCSR[C accum](acc, panel []C, sk *panelSkip, m, colW, o int) {
	for oc := 0; oc < o; oc++ {
		es := sk.csrEnt[2*sk.csrOff[oc] : 2*sk.csrOff[oc+1]]
		out := acc[oc*m : (oc+1)*m]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := panel[i*colW:][:colW]
			a1 := panel[(i+1)*colW:][:colW]
			a2 := panel[(i+2)*colW:][:colW]
			a3 := panel[(i+3)*colW:][:colW]
			var c0, c1, c2, c3 C
			e := 0
			for ; e+4 <= len(es); e += 4 {
				j0 := int(es[e])
				w0 := C(es[e+1])
				j1 := int(es[e+2])
				w1 := C(es[e+3])
				c0 += a0[j0]*w0 + a0[j1]*w1
				c1 += a1[j0]*w0 + a1[j1]*w1
				c2 += a2[j0]*w0 + a2[j1]*w1
				c3 += a3[j0]*w0 + a3[j1]*w1
			}
			for ; e+2 <= len(es); e += 2 {
				j := int(es[e])
				w := C(es[e+1])
				c0 += a0[j] * w
				c1 += a1[j] * w
				c2 += a2[j] * w
				c3 += a3[j] * w
			}
			out[i], out[i+1], out[i+2], out[i+3] = c0, c1, c2, c3
		}
		for ; i < m; i++ {
			a0 := panel[i*colW:][:colW]
			var c0 C
			for e := 0; e+2 <= len(es); e += 2 {
				c0 += a0[es[e]] * C(es[e+1])
			}
			out[i] = c0
		}
	}
}

// linPanelsCSR runs the channel-granular sparse GEMM for the typed
// linear, widening activations at use exactly like the dense loop.
// Writes the same [site][channel] accumulator layout as linJob.
func linPanelsCSR[A tensor.Elem, C accum](acc []C, xs []A, sk *panelSkip, r0, m, k, o int) {
	for oc := 0; oc < o; oc++ {
		es := sk.csrEnt[2*sk.csrOff[oc] : 2*sk.csrOff[oc+1]]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := xs[(r0+i)*k : (r0+i+1)*k]
			a1 := xs[(r0+i+1)*k : (r0+i+2)*k]
			a2 := xs[(r0+i+2)*k : (r0+i+3)*k]
			a3 := xs[(r0+i+3)*k : (r0+i+4)*k]
			var c0, c1, c2, c3 C
			e := 0
			for ; e+4 <= len(es); e += 4 {
				j0 := int(es[e])
				w0 := C(es[e+1])
				j1 := int(es[e+2])
				w1 := C(es[e+3])
				c0 += C(a0[j0])*w0 + C(a0[j1])*w1
				c1 += C(a1[j0])*w0 + C(a1[j1])*w1
				c2 += C(a2[j0])*w0 + C(a2[j1])*w1
				c3 += C(a3[j0])*w0 + C(a3[j1])*w1
			}
			for ; e+2 <= len(es); e += 2 {
				j := int(es[e])
				w := C(es[e+1])
				c0 += C(a0[j]) * w
				c1 += C(a1[j]) * w
				c2 += C(a2[j]) * w
				c3 += C(a3[j]) * w
			}
			acc[i*o+oc] = c0
			acc[(i+1)*o+oc] = c1
			acc[(i+2)*o+oc] = c2
			acc[(i+3)*o+oc] = c3
		}
		for ; i < m; i++ {
			a0 := xs[(r0+i)*k : (r0+i+1)*k]
			var c0 C
			for e := 0; e+2 <= len(es); e += 2 {
				c0 += C(a0[es[e]]) * C(es[e+1])
			}
			acc[i*o+oc] = c0
		}
	}
}

// gemmPanelsNM is the N:M-packed microkernel: each output channel
// streams its packed slots (one sequential int32 per executed multiply),
// selecting the activation inside the aligned group by the 2-bit index.
// Four sites per step amortize each slot load over four MACs; at 2:4 the
// multiply count is half the dense kernel's. Writes the same
// [channel][site] accumulator layout as gemmPanels.
func gemmPanelsNM[C accum](acc, panel []C, nm *nmPack, m, colW, o int) {
	n, groups := nm.n, nm.groups
	for oc := 0; oc < o; oc++ {
		pk := nm.packed[oc*groups*n : (oc+1)*groups*n]
		out := acc[oc*m : (oc+1)*m]
		i := 0
		for ; i+8 <= m; i += 8 {
			a0 := panel[i*colW:][:colW]
			a1 := panel[(i+1)*colW:][:colW]
			a2 := panel[(i+2)*colW:][:colW]
			a3 := panel[(i+3)*colW:][:colW]
			a4 := panel[(i+4)*colW:][:colW]
			a5 := panel[(i+5)*colW:][:colW]
			a6 := panel[(i+6)*colW:][:colW]
			a7 := panel[(i+7)*colW:][:colW]
			var c0, c1, c2, c3, c4, c5, c6, c7 C
			if n == 2 {
				for g := 0; g < groups; g++ {
					e0 := pk[g*2]
					e1 := pk[g*2+1]
					j0 := g*nmM + int(e0&3)
					j1 := g*nmM + int(e1&3)
					w0 := C(e0 >> 2)
					w1 := C(e1 >> 2)
					c0 += a0[j0]*w0 + a0[j1]*w1
					c1 += a1[j0]*w0 + a1[j1]*w1
					c2 += a2[j0]*w0 + a2[j1]*w1
					c3 += a3[j0]*w0 + a3[j1]*w1
					c4 += a4[j0]*w0 + a4[j1]*w1
					c5 += a5[j0]*w0 + a5[j1]*w1
					c6 += a6[j0]*w0 + a6[j1]*w1
					c7 += a7[j0]*w0 + a7[j1]*w1
				}
			} else {
				for g := 0; g < groups; g++ {
					e0 := pk[g]
					j0 := g*nmM + int(e0&3)
					w0 := C(e0 >> 2)
					c0 += a0[j0] * w0
					c1 += a1[j0] * w0
					c2 += a2[j0] * w0
					c3 += a3[j0] * w0
					c4 += a4[j0] * w0
					c5 += a5[j0] * w0
					c6 += a6[j0] * w0
					c7 += a7[j0] * w0
				}
			}
			out[i], out[i+1], out[i+2], out[i+3] = c0, c1, c2, c3
			out[i+4], out[i+5], out[i+6], out[i+7] = c4, c5, c6, c7
		}
		for ; i+4 <= m; i += 4 {
			a0 := panel[i*colW:][:colW]
			a1 := panel[(i+1)*colW:][:colW]
			a2 := panel[(i+2)*colW:][:colW]
			a3 := panel[(i+3)*colW:][:colW]
			var c0, c1, c2, c3 C
			if n == 2 {
				for g := 0; g < groups; g++ {
					e0 := pk[g*2]
					e1 := pk[g*2+1]
					j0 := g*nmM + int(e0&3)
					j1 := g*nmM + int(e1&3)
					w0 := C(e0 >> 2)
					w1 := C(e1 >> 2)
					c0 += a0[j0]*w0 + a0[j1]*w1
					c1 += a1[j0]*w0 + a1[j1]*w1
					c2 += a2[j0]*w0 + a2[j1]*w1
					c3 += a3[j0]*w0 + a3[j1]*w1
				}
			} else {
				for g := 0; g < groups; g++ {
					e0 := pk[g]
					j0 := g*nmM + int(e0&3)
					w0 := C(e0 >> 2)
					c0 += a0[j0] * w0
					c1 += a1[j0] * w0
					c2 += a2[j0] * w0
					c3 += a3[j0] * w0
				}
			}
			out[i], out[i+1], out[i+2], out[i+3] = c0, c1, c2, c3
		}
		for ; i < m; i++ {
			a0 := panel[i*colW:][:colW]
			var c0 C
			for g := 0; g < groups; g++ {
				for t := 0; t < n; t++ {
					e := pk[g*n+t]
					c0 += a0[g*nmM+int(e&3)] * C(e>>2)
				}
			}
			out[i] = c0
		}
	}
}

// linPanelsNM runs the N:M-packed GEMM for the typed linear, widening
// activations at use. Writes the same [site][channel] accumulator layout
// as linJob.
func linPanelsNM[A tensor.Elem, C accum](acc []C, xs []A, nm *nmPack, r0, m, k, o int) {
	n, groups := nm.n, nm.groups
	for oc := 0; oc < o; oc++ {
		pk := nm.packed[oc*groups*n : (oc+1)*groups*n]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := xs[(r0+i)*k : (r0+i+1)*k]
			a1 := xs[(r0+i+1)*k : (r0+i+2)*k]
			a2 := xs[(r0+i+2)*k : (r0+i+3)*k]
			a3 := xs[(r0+i+3)*k : (r0+i+4)*k]
			var c0, c1, c2, c3 C
			if n == 2 {
				for g := 0; g < groups; g++ {
					e0 := pk[g*2]
					e1 := pk[g*2+1]
					j0 := g*nmM + int(e0&3)
					j1 := g*nmM + int(e1&3)
					w0 := C(e0 >> 2)
					w1 := C(e1 >> 2)
					c0 += C(a0[j0])*w0 + C(a0[j1])*w1
					c1 += C(a1[j0])*w0 + C(a1[j1])*w1
					c2 += C(a2[j0])*w0 + C(a2[j1])*w1
					c3 += C(a3[j0])*w0 + C(a3[j1])*w1
				}
			} else {
				for g := 0; g < groups; g++ {
					e0 := pk[g]
					j := g*nmM + int(e0&3)
					w := C(e0 >> 2)
					c0 += C(a0[j]) * w
					c1 += C(a1[j]) * w
					c2 += C(a2[j]) * w
					c3 += C(a3[j]) * w
				}
			}
			acc[i*o+oc] = c0
			acc[(i+1)*o+oc] = c1
			acc[(i+2)*o+oc] = c2
			acc[(i+3)*o+oc] = c3
		}
		for ; i < m; i++ {
			a0 := xs[(r0+i)*k : (r0+i+1)*k]
			var c0 C
			for g := 0; g < groups; g++ {
				for t := 0; t < n; t++ {
					e := pk[g*n+t]
					c0 += C(a0[g*nmM+int(e&3)]) * C(e>>2)
				}
			}
			acc[i*o+oc] = c0
		}
	}
}

// gemmPanelsSwarSparse is the pair-skipping lane-packed microkernel:
// same contract as gemmPanelsSwar, but each pair word stream iterates
// its live list. A dead position's packed word is 0, so the skipped
// terms contribute nothing to S' (see the file comment). Four sites per
// step keep the packed-weight reuse of the dense kernel; the pair
// streams run as separate loops since their live sets differ. As in the
// dense core, full panels store with the inlined storeSwar4 and the
// partial last panel runs one site at a time through storeSwarSite.
func gemmPanelsSwarSparse(acc []int32, panel []uint8, wps []uint64, sk *panelSkip, m, colW, o, np, cs, rs int) {
	for pb := 0; pb < np; pb++ {
		wp := wps[pb*colW*swarLanes : (pb+1)*colW*swarLanes]
		wa := wp[:colW]
		wb := wp[colW:][:colW]
		la := sk.liveA[sk.offA[pb]:sk.offA[pb+1]]
		lb := sk.liveB[sk.offB[pb]:sk.offB[pb+1]]
		oc0 := pb * panelW
		base := oc0 * cs
		if nch := o - oc0; nch < panelW {
			for i := 0; i < m; i++ {
				p01, p23 := swarLive1(panel[i*colW:][:colW], wa, wb, la, lb)
				storeSwarSite(acc, base+i*rs, nch, cs, p01, p23)
			}
			continue
		}
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := panel[i*colW:][:colW]
			a1 := panel[(i+1)*colW:][:colW]
			a2 := panel[(i+2)*colW:][:colW]
			a3 := panel[(i+3)*colW:][:colW]
			var p00, p10, p20, p30 uint64
			for _, j := range la {
				w01 := wa[j]
				p00 += uint64(a0[j]) * w01
				p10 += uint64(a1[j]) * w01
				p20 += uint64(a2[j]) * w01
				p30 += uint64(a3[j]) * w01
			}
			var p01, p11, p21, p31 uint64
			for _, j := range lb {
				w23 := wb[j]
				p01 += uint64(a0[j]) * w23
				p11 += uint64(a1[j]) * w23
				p21 += uint64(a2[j]) * w23
				p31 += uint64(a3[j]) * w23
			}
			storeSwar4(acc, base+i*rs, cs, p00, p01)
			storeSwar4(acc, base+(i+1)*rs, cs, p10, p11)
			storeSwar4(acc, base+(i+2)*rs, cs, p20, p21)
			storeSwar4(acc, base+(i+3)*rs, cs, p30, p31)
		}
		for ; i < m; i++ {
			p01, p23 := swarLive1(panel[i*colW:][:colW], wa, wb, la, lb)
			storeSwar4(acc, base+i*rs, cs, p01, p23)
		}
	}
}

// swarLive1 is the pair-skipping tap loop of one site row.
func swarLive1(a0 []uint8, wa, wb []uint64, la, lb []int32) (p01, p23 uint64) {
	for _, j := range la {
		p01 += uint64(a0[j]) * wa[j]
	}
	for _, j := range lb {
		p23 += uint64(a0[j]) * wb[j]
	}
	return
}

// sparseEff resolves the executed-MAC fraction of instruction i's
// planned kernel under the full fast registry (typed + SWAR + sparse) —
// the registry-independent modeling assumption the work model and the
// sparsity stats share. Falls back to 1/1 when the storage plan cannot
// be derived.
func (p *Program) sparseEff(i int) (effNum, effDen int64) {
	sp := &p.sparsity()[i]
	if sp.strategy == spDense {
		return 1, 1
	}
	st, err := p.storage()
	if err != nil {
		return 1, 1
	}
	_, num, den := sparsePlan(sp, st.typed[i], st.swar[i], st.swarSparse[i])
	return num, den
}

// ModeledMacs evaluates the dense and effective multiply-accumulate
// counts of one run at inShape (full shape including the batch
// dimension). Effective MACs scale each conv/linear by its strategy's
// live fraction — the same rule instrWorkNs applies — so
// dense/effective is exactly the work ratio the sparse kernels are
// modeled to save.
func (p *Program) ModeledMacs(inShape []int) (dense, effective int64, err error) {
	shapes, err := p.InferShapes(inShape)
	if err != nil {
		return 0, 0, err
	}
	for i := range p.Instrs {
		it := &p.Instrs[i]
		macs := instrDenseMacs(it, shapes)
		if macs == 0 {
			continue
		}
		dense += macs
		if it.Kind == OpConv || it.Kind == OpLinear {
			num, den := p.sparseEff(i)
			macs = macs * num / den
		}
		effective += macs
	}
	return dense, effective, nil
}

// SparsityStats aggregates the program-level sparsity summary: the
// weight-count-weighted zero fraction across all conv/linear weights,
// and the modeled MAC skip fraction (1 − effective/dense) at the
// compiled single-sample input shape. The skip fraction is 0 when the
// program carries no InShape (pre-PR-3 checkpoints) — weight sparsity
// is still reported.
func (p *Program) SparsityStats() (weightSparsity, skipFraction float64) {
	var zeros, count int64
	for _, sp := range p.sparsity() {
		zeros += sp.wZeros
		count += sp.wCount
	}
	if count > 0 {
		weightSparsity = float64(zeros) / float64(count)
	}
	if len(p.InShape) > 0 {
		in := append([]int{1}, p.InShape...)
		if dense, eff, err := p.ModeledMacs(in); err == nil && dense > 0 {
			skipFraction = 1 - float64(eff)/float64(dense)
		}
	}
	return weightSparsity, skipFraction
}
