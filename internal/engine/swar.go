package engine

// The SWAR cores of the conv/linear drivers ("swar", "swar-sparse"):
// two output channels share one 64-bit accumulator word (32-bit lanes),
// so every multiply retires two MACs. They are cores of convPackT[int32]
// and linPackT[int32] (prepack.go), whose tiling, fused-add read,
// epilogue and dtype dispatch they share; what they own is here — the
// biased byte gather, the lane-packed weights (swarPack), the site tile,
// and the microkernels.
// Activations are gathered as bytes a' = a + ba ∈ [0, 255] (ba = −lo of
// the storage dtype); weights pack signed and unbiased, W = w₀ + w₁·2³²
// mod 2⁶⁴. Word arithmetic is exact mod 2⁶⁴, so the accumulated word is
// S'₀ + S'₁·2³² mod 2⁶⁴ however the partial sums move, and the
// sign-extending lane decode (intmath.LaneLo/LaneHi) returns both lanes
// exactly as long as each final lane sum fits int32 (the storage pass
// proves K·aSpan·max(|wMin|, |wMax|) ≤ 2³¹−1 per instruction). The cores
// store S' = Σ a'·w as it decodes; the raw dot product is
//
//	S = S' − ba·Σw(channel),
//
// and the term ba·Σw, like the zero point's InZero·Σw, is a per-channel
// constant that the bind folds into the epilogue's bias (newEpi), so the
// store is a pure lane decode and the tile flows through the same
// epilogue as the int32 panel cores — bit-identity by construction. A
// byte panel
// holds 8× the sites of an int64 panel per cache line, so SWAR tiles
// target larger site counts while staying L1-resident; K is never split
// — the legality bound already caps it.

import (
	"fmt"
	"slices"

	"torch2chip/internal/intmath"
	"torch2chip/internal/tensor"
)

// swarLanes is the number of output channels per packed accumulator word.
const swarLanes = intmath.SwarLanes

// swarPack is what a SWAR core reads besides its byte panel: the
// lane-packed signed weights and the activation bias of the gather.
type swarPack struct {
	wps []uint64
	ba  int64
}

// swarInstr reports whether instruction idx takes the SWAR lane-packed
// path under this executor's registry.
func (ex *Executor) swarInstr(idx int) bool {
	return ex.reg.swar && ex.stor != nil && ex.stor.swar[idx]
}

// packPanelsSwar packs signed weights into lane pairs, de-interleaved per
// panel: the first k words of a panel hold channels (0,1) in (low, high)
// lanes for each tap j, the next k words channels (2,3). The split-half
// layout lets the microkernel index both word streams with the same tap
// counter the range loop already bounds. Channels beyond o pack lane
// value 0, which contributes nothing and is never extracted.
func packPanelsSwar(w []int64, o, k int) []uint64 {
	np := (o + panelW - 1) / panelW
	out := make([]uint64, np*k*swarLanes)
	for pb := 0; pb < np; pb++ {
		lo := out[pb*k*swarLanes : pb*k*swarLanes+k]
		hi := out[pb*k*swarLanes+k : (pb+1)*k*swarLanes]
		for j := 0; j < k; j++ {
			var lane [panelW]int32
			for r := 0; r < panelW; r++ {
				if oc := pb*panelW + r; oc < o {
					lane[r] = int32(w[oc*k+j])
				}
			}
			lo[j] = intmath.PackLanes2(lane[0], lane[1])
			hi[j] = intmath.PackLanes2(lane[2], lane[3])
		}
	}
	return out
}

// tileSitesSwar picks the SWAR site tile: byte panels pack 8× the sites
// of an int64 panel per cache line, so the target is 16 KiB of gathered
// activations per tile (L1-resident alongside the packed weight panel).
func tileSitesSwar(colW, spatial int) int {
	tm := 16384 / colW
	if tm < 4 {
		tm = 4
	}
	if tm > 64 {
		tm = 64
	}
	if tm > spatial {
		tm = spatial
	}
	return tm
}

// swarShared builds (or fetches) the shared SWAR pack of an instruction
// over [o, k] weights read from 8-bit input storage ad. The activation
// bias comes from ad's full span, so any accepted code is safe; the
// epilogue's bias absorbs it with the zero point, (InZero + ba)·Σw.
func swarShared(ex *Executor, idx int, it *Instr, ad tensor.DType, o, k int) (*sharedPack, error) {
	if ad != tensor.I8 && ad != tensor.U8 {
		return nil, fmt.Errorf("engine: swar %s %s input dtype %s", it.Kind, it.Name, ad)
	}
	lo, _ := ad.Range()
	ba := -lo
	return ex.prog.packs().sharedFor(sharedKey{idx: idx, swar: true}, func() *sharedPack {
		return &sharedPack{
			sw:  &swarPack{wps: packPanelsSwar(it.W.Data, o, k), ba: ba},
			epi: newEpi(it, o, it.W.Data, it.InZero+ba, int32AccMax),
		}
	}), nil
}

// gatherPanelBytes fills a [m, c·kH·kW] biased byte panel for sites
// [s0, s0+m) of one sample. Interior sites (every tap in bounds) gather
// kW-contiguous byte runs straight from the input planes with no
// branches. Border sites take the geometry's border rule: the in-bounds
// tap runs are biased as usual and every padded tap writes the bias byte
// (raw 0), exactly mirroring the raw gather's zero-fill.
func gatherPanelBytes[A tensor.Elem](panel []uint8, xs []A, g *convGeom, ba int64, s0, m int) {
	kW, kH, hw := g.kW, g.kH, g.h*g.w
	colW := g.c * kH * kW
	oy, ox := s0/g.ow, s0%g.ow
	for i := 0; i < m; i++ {
		row := panel[i*colW : (i+1)*colW]
		if oy >= g.oyLo && oy < g.oyHi && ox >= g.oxLo && ox < g.oxHi {
			base := (oy*g.stride-g.pad)*g.w + ox*g.stride - g.pad
			switch {
			case kW == 1 && kH == 1:
				// 1×1 conv: one byte per channel plane, stride h·w.
				tap := base
				for ch := range row {
					row[ch] = uint8(int64(xs[tap]) + ba)
					tap += hw
				}
			case kW == 3:
				// 3-wide kernels: each (channel, row) run is three
				// contiguous bytes.
				p := 0
				tapc := base
				for ch := 0; ch < g.c; ch++ {
					tap := tapc
					for ky := 0; ky < kH; ky++ {
						src := xs[tap : tap+3]
						dst := row[p:][:3]
						dst[0] = uint8(int64(src[0]) + ba)
						dst[1] = uint8(int64(src[1]) + ba)
						dst[2] = uint8(int64(src[2]) + ba)
						tap += g.w
						p += 3
					}
					tapc += hw
				}
			default:
				p := 0
				tapc := base
				for ch := 0; ch < g.c; ch++ {
					tap := tapc
					for ky := 0; ky < kH; ky++ {
						src := xs[tap : tap+kW]
						dst := row[p:][:len(src)]
						for t, v := range src {
							dst[t] = uint8(int64(v) + ba)
						}
						tap += g.w
						p += kW
					}
					tapc += hw
				}
			}
		} else {
			ky0, ky1, kx0, kx1, base := g.window(oy, ox)
			// Fill the row with the bias byte, then overwrite the tap
			// runs; the doubling copies run as memmoves, which a byte
			// loop over the whole row does not.
			row[0] = uint8(ba)
			for n := 1; n < len(row); n *= 2 {
				copy(row[n:], row[:n])
			}
			n := kx1 - kx0
			for ch := 0; ch < g.c; ch++ {
				tap := ch*hw + base + ky0*g.w + kx0
				p := (ch*kH+ky0)*kW + kx0
				for ky := ky0; ky < ky1; ky++ {
					src := xs[tap : tap+n]
					dst := row[p:][:len(src)]
					for t, v := range src {
						dst[t] = uint8(int64(v) + ba)
					}
					tap += g.w
					p += kW
				}
			}
		}
		ox++
		if ox == g.ow {
			ox = 0
			oy++
		}
	}
}

// gatherRowBytes fills a [len(xs)/k, k] biased byte panel straight from
// contiguous input rows (the linear layout).
func gatherRowBytes[A tensor.Elem](panel []uint8, xs []A, ba int64) {
	panel = panel[:len(xs)]
	for j, v := range xs {
		panel[j] = uint8(int64(v) + ba)
	}
}

// gemmPanelsSwar is the lane-packed microkernel: per packed weight panel
// and four-site block, eight 64-bit accumulator words carry sixteen
// channel sums (two lanes each), which the stores decode into S' = Σ a'·w
// of every (site, channel) at acc[oc·cs + site·rs] (cs = tile sites,
// rs = 1 for the conv's channel-major tile; cs = 1, rs = o for the
// linear's row-major tile). Full panels store four lanes per site with
// storeSwar4, a leaf that inlines; only the partial last panel (o not a
// multiple of panelW) takes the general storeSwarSite, one site at a
// time.
func gemmPanelsSwar(acc []int32, panel []uint8, wps []uint64, m, colW, o, np, cs, rs int) {
	for pb := 0; pb < np; pb++ {
		// Split-half panel layout: wa[j] carries channels (0,1) of tap j,
		// wb[j] channels (2,3).
		wp := wps[pb*colW*swarLanes : (pb+1)*colW*swarLanes]
		wa := wp[:colW]
		wb := wp[colW:][:colW]
		oc0 := pb * panelW
		base := oc0 * cs
		if nch := o - oc0; nch < panelW {
			for i := 0; i < m; i++ {
				p01, p23 := swarTaps1(panel[i*colW:][:colW], wa, wb)
				storeSwarSite(acc, base+i*rs, nch, cs, p01, p23)
			}
			continue
		}
		i := 0
		for ; i+4 <= m; i += 4 {
			p00, p01, p10, p11, p20, p21, p30, p31 := swarTaps4(
				panel[i*colW:][:colW], panel[(i+1)*colW:][:colW],
				panel[(i+2)*colW:][:colW], panel[(i+3)*colW:][:colW], wa, wb)
			storeSwar4(acc, base+i*rs, cs, p00, p01)
			storeSwar4(acc, base+(i+1)*rs, cs, p10, p11)
			storeSwar4(acc, base+(i+2)*rs, cs, p20, p21)
			storeSwar4(acc, base+(i+3)*rs, cs, p30, p31)
		}
		for ; i < m; i++ {
			p01, p23 := swarTaps1(panel[i*colW:][:colW], wa, wb)
			storeSwar4(acc, base+i*rs, cs, p01, p23)
		}
	}
}

// swarTaps4 is the dense core's tap loop over four site rows against the
// two word streams of one panel. It is a leaf of its own so that the
// eight accumulator words stay in registers across the loop: eight
// independent chains hide the multiply latency, and each packed weight
// load is reused across four sites.
func swarTaps4(a0, a1, a2, a3 []uint8, wa, wb []uint64) (p00, p01, p10, p11, p20, p21, p30, p31 uint64) {
	// Re-slicing every stream to len(wa) lets the range variable prove
	// each index, so the loop carries no bounds checks.
	wb = wb[:len(wa)]
	a0, a1, a2, a3 = a0[:len(wa)], a1[:len(wa)], a2[:len(wa)], a3[:len(wa)]
	for j, w01 := range wa {
		w23 := wb[j]
		av0 := uint64(a0[j])
		av1 := uint64(a1[j])
		av2 := uint64(a2[j])
		av3 := uint64(a3[j])
		p00 += av0 * w01
		p01 += av0 * w23
		p10 += av1 * w01
		p11 += av1 * w23
		p20 += av2 * w01
		p21 += av2 * w23
		p30 += av3 * w01
		p31 += av3 * w23
	}
	return
}

// swarTaps1 is swarTaps4 for one site row: the block tail and the
// partial last panel.
func swarTaps1(a0 []uint8, wa, wb []uint64) (p01, p23 uint64) {
	wb, a0 = wb[:len(wa)], a0[:len(wa)]
	for j, w01 := range wa {
		av := uint64(a0[j])
		p01 += av * w01
		p23 += av * wb[j]
	}
	return
}

// storeSwar4 decodes the four lanes of one site of a full panel into
// the tile at base, base+cs, base+2·cs, base+3·cs.
func storeSwar4(acc []int32, base, cs int, p01, p23 uint64) {
	acc = acc[base:]
	acc[0] = int32(intmath.LaneLo(p01))
	acc[cs] = int32(intmath.LaneHi(p01))
	acc[2*cs] = int32(intmath.LaneLo(p23))
	acc[3*cs] = int32(intmath.LaneHi(p23))
}

// storeSwarSite decodes the first nch lanes of one site (the partial
// last panel) into the tile at base + r·cs.
func storeSwarSite(acc []int32, base, nch, cs int, p01, p23 uint64) {
	lanes := [panelW]int64{
		intmath.LaneLo(p01), intmath.LaneHi(p01),
		intmath.LaneLo(p23), intmath.LaneHi(p23),
	}
	for r := 0; r < nch; r++ {
		acc[base+r*cs] = int32(lanes[r])
	}
}

// KernelChoice is the per-instruction record of a bound executor: what
// the instruction is and where its output lives at the bound batch, the
// path it bound with the facts that chose it, and its modeled cost per
// sample. Rows a traced Server returns from Explain also carry the
// measured cost of the instruction spans its ring still holds.
type KernelChoice struct {
	Index int    `json:"index"` // instruction index
	Name  string `json:"name"`  // instruction name
	Kind  OpKind `json:"kind"`
	// Operand and output shapes and storage dtypes at the bound batch.
	InShapes [][]int  `json:"in_shapes"`
	InDTypes []string `json:"in_dtypes"`
	OutShape []int    `json:"out_shape"`
	OutDType string   `json:"out_dtype"`
	// Offset (elements) and Bytes place the output in its dtype arena.
	Offset int   `json:"arena_offset"`
	Bytes  int64 `json:"arena_bytes"`
	// Path is "swar", "swar-sparse", "i32-panel", "i32-sparse", "i32-nm",
	// "i32-direct", "i64-panel", "i64-direct", "matmul-i32" or
	// "matmul-i64" (the packed-panel matmul at its accumulator width),
	// "softmax-recip" or "softmax-div", or "reference" when no state is
	// bound and the registered body runs.
	Path  string `json:"path"`
	Int32 bool   `json:"int32"`            // the bound state accumulates in int32
	Lanes int    `json:"lanes,omitempty"`  // output channels per packed accumulator word (SWAR only)
	TileM int    `json:"tile_m,omitempty"` // site/row tile of the bound GEMM state at the bound batch
	// Sparse is the conv/linear sparse-kernel pick under this registry
	// ("dense", "csr", "pair-swar" or "nm") and NM the N:M structure the
	// weights carry ("2:4"; empty when none), which the pick may not use.
	Sparse string `json:"sparse,omitempty"`
	NM     string `json:"nm,omitempty"`
	// WeightSparsity is the fraction of exactly-zero weights;
	// SkipFrac the fraction of dense MACs the bound kernel skips
	// (1 − effective/dense; 0 on dense-bound paths even when the
	// weights are sparse).
	WeightSparsity float64 `json:"weight_sparsity,omitempty"`
	SkipFrac       float64 `json:"skip_fraction,omitempty"`
	// ModeledNs is the work model's serial ns per sample; MeasuredNs the
	// mean traced ns per sample over Spans instruction spans.
	ModeledNs  float64 `json:"modeled_ns"`
	MeasuredNs float64 `json:"measured_ns,omitempty"`
	Spans      int64   `json:"spans,omitempty"`
}

// KernelChoices reports the records of the conv/linear/matmul
// instructions: which prepacked path the executor bound (after all
// storage and SWAR legality decisions).
func (ex *Executor) KernelChoices() []KernelChoice {
	return slices.DeleteFunc(ex.Explain(), func(c KernelChoice) bool {
		return c.Kind != OpConv && c.Kind != OpLinear && c.Kind != OpMatMul
	})
}

// Explain reports the record of every instruction in program order.
func (ex *Executor) Explain() []KernelChoice {
	pl := ex.plan
	out := make([]KernelChoice, 0, len(ex.prog.Instrs))
	for i := range ex.prog.Instrs {
		it := &ex.prog.Instrs[i]
		dt := pl.DTypes[it.Out]
		c := KernelChoice{
			Index: i, Name: it.Name, Kind: it.Kind,
			OutShape: slices.Clone(pl.Shapes[it.Out]), OutDType: dt.String(),
			Offset: pl.Offsets[it.Out], Bytes: int64(tensor.Numel(pl.Shapes[it.Out]) * dt.Size()),
			ModeledNs: float64(ex.prog.instrWorkNs(i, pl.Shapes)) / float64(ex.bound),
		}
		for _, b := range it.In {
			c.InShapes = append(c.InShapes, slices.Clone(pl.Shapes[b]))
			c.InDTypes = append(c.InDTypes, pl.DTypes[b].String())
		}
		sp := &ex.prog.sparsity()[i]
		if it.Kind == OpConv || it.Kind == OpLinear {
			if sp.wCount > 0 {
				c.WeightSparsity = float64(sp.wZeros) / float64(sp.wCount)
			}
			if sp.nm != nil {
				c.NM = fmt.Sprintf("%d:%d", sp.nm.n, nmM)
			}
			c.Sparse = ex.sparsePickFor(i).String()
		}
		switch st := ex.states[i].(type) {
		case coreState:
			core, tm := st.boundCore()
			c.Path, c.Int32, c.TileM = core.String(), core != coreI64, tm[ex.bound]
			if core.swar() {
				c.Lanes = swarLanes
			}
			// Skip fraction of the core actually bound (the CSR, pair
			// list, and N:M forms execute different MAC counts).
			switch core {
			case coreCSR:
				c.SkipFrac = 1 - float64(sp.skip.csrMacs)/float64(sp.skip.denseMacs)
			case coreSwarSparse:
				c.SkipFrac = 1 - float64(sp.skip.liveMacs)/float64(sp.skip.denseMacs)
			case coreNM:
				c.SkipFrac = 1 - float64(sp.nm.n)/float64(nmM)
			}
		case *gconvPackT[int32]:
			c.Path, c.Int32 = "i32-direct", true
		case *gconvPackT[int64]:
			c.Path = "i64-direct"
		case *mmPackT[int32]:
			c.Path, c.Int32 = "matmul-i32", true
		case *mmPackT[int64]:
			c.Path = "matmul-i64"
		case *smPack:
			c.Path = "softmax-div"
			if st.recip {
				c.Path = "softmax-recip"
			}
		default:
			c.Path = "reference"
		}
		out = append(out, c)
	}
	return out
}
