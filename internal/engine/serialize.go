package engine

import (
	"fmt"
	"slices"

	"torch2chip/internal/export"
	"torch2chip/internal/intmath"
	"torch2chip/internal/quant"
	"torch2chip/internal/tensor"
)

// ProgramSpecVersion is the serialized graph IR version this package
// writes. Version 2 adds the optimization level and fused-epilogue
// instruction fields; version 3 adds per-buffer storage dtypes; version
// 4 adds the transformer instruction kinds (matmul, layernorm, softmax,
// gelu, head split/merge, embed, cls) with their tables and constants.
// Every version loads into the program it was written from: storage
// dtypes are derived from the program, never read from the file, so a
// v1/v2 checkpoint plans the storage a fresh compile does.
const ProgramSpecVersion = 4

// minProgramSpecVersion is the oldest spec this package accepts.
const minProgramSpecVersion = 1

// Spec lowers the program to the plain-data checkpoint representation.
// Instruction weights are referenced by the names WeightTensors uses;
// callers must store those tensors in the same checkpoint.
func (p *Program) Spec() *export.ProgramSpec {
	spec := &export.ProgramSpec{
		Version:  ProgramSpecVersion,
		OptLevel: int(p.OptLevel),
		InShape:  append([]int(nil), p.InShape...),
		InQuant: export.QuantSpec{
			NBits:  p.InQuant.NBits,
			Signed: p.InQuant.Signed,
			Scale:  append([]float32(nil), p.InQuant.Scale...),
			Zero:   append([]int64(nil), p.InQuant.Zero...),
		},
		OutScale: p.OutScale,
		OutZero:  p.OutZero,
		NumBufs:  p.NumBufs,
		Input:    p.Input,
		Output:   p.Output,
	}
	if _, dts, err := p.bufDTypes(); err == nil {
		for _, dt := range dts {
			spec.BufDTypes = append(spec.BufDTypes, dt.String())
		}
	}
	for i := range p.Instrs {
		it := &p.Instrs[i]
		is := export.InstrSpec{
			Kind: string(it.Kind), Name: it.Name,
			In: append([]int(nil), it.In...), Out: it.Out,
			Weight: it.weightName(),
		}
		switch it.Kind {
		case OpConv:
			is.Stride, is.Padding, is.Groups = it.P.Stride, it.P.Padding, it.P.Groups
			is.InZero, is.WBits = it.InZero, it.WBits
			is.Scaler = scalerSpec(it.Scaler)
		case OpLinear:
			is.InZero, is.WBits = it.InZero, it.WBits
			is.Scaler = scalerSpec(it.Scaler)
		case OpAvgPool:
			is.Kernel, is.PoolStride = it.Kernel, it.Stride
		case OpRescale:
			is.Scaler = scalerSpec(it.Scaler)
		case OpAdd:
			is.Shift, is.ClampLo, is.ClampHi = it.Shift, it.ClampLo, it.ClampHi
		case OpMatMul:
			is.TransposeB, is.ZA, is.ZB = it.TransposeB, it.ZA, it.ZB
			is.Scaler = scalerSpec(it.Scaler)
		case OpLayerNorm:
			is.LNDim, is.LNK, is.LNFrac, is.LNEps = it.LNDim, it.LNK, int(it.LNFrac), it.LNEps
			is.Scaler = scalerSpec(it.Scaler)
		case OpSoftmax:
			is.Softmax = &export.SoftmaxSpec{
				ExpInMin: it.SM.Exp.InMin,
				ExpTable: append([]int64(nil), it.SM.Exp.Table...),
				OutBits:  it.SM.OutBits,
			}
			is.ClampLo, is.ClampHi = it.ClampLo, it.ClampHi
		case OpGelu:
			is.Gelu = &export.LUTSpec{
				InMin:    it.Gelu.InMin,
				Table:    append([]int64(nil), it.Gelu.Table...),
				OutScale: it.Gelu.OutScale,
			}
			is.ClampLo, is.ClampHi = it.ClampLo, it.ClampHi
		case OpSplitHeads, OpMergeHeads:
			is.Heads = it.Heads
		case OpEmbed:
			is.ClampLo, is.ClampHi = it.ClampLo, it.ClampHi
		}
		if it.FusedRescale != nil {
			is.FusedRescale = scalerSpec(it.FusedRescale)
		}
		if it.FusedAdd {
			is.FusedAdd = true
			is.Shift, is.ClampLo, is.ClampHi = it.Shift, it.ClampLo, it.ClampHi
		}
		is.FlattenOut = it.FlattenOut
		spec.Instrs = append(spec.Instrs, is)
	}
	return spec
}

func scalerSpec(m *intmath.MulQuant) *export.ScalerSpec {
	return &export.ScalerSpec{
		ScaleFx:   append([]int16(nil), m.ScaleFx...),
		BiasFx:    append([]int32(nil), m.BiasFx...),
		FracBits:  m.FracBits,
		IntBits:   m.IntBits,
		OutBits:   m.OutBits,
		OutSigned: m.OutSigned,
		OutZero:   m.OutZero,
	}
}

func scalerFromSpec(s *export.ScalerSpec) *intmath.MulQuant {
	return &intmath.MulQuant{
		ScaleFx:   append([]int16(nil), s.ScaleFx...),
		BiasFx:    append([]int32(nil), s.BiasFx...),
		FracBits:  s.FracBits,
		IntBits:   s.IntBits,
		OutBits:   s.OutBits,
		OutSigned: s.OutSigned,
		OutZero:   s.OutZero,
	}
}

// checkScaler validates a serialized MulQuant before it reaches the
// kernels: the fixed-point split must be a real INT16 split (FracBits
// feeds shift amounts), scale and bias must pair up, and the channel
// count must be unified (1) or exactly the channels the consuming
// kernel indexes (want; 0 accepts any non-empty). Without this a
// corrupt checkpoint passes load and panics (or silently computes with
// channel 0 only) inside a serving worker at inference time.
func checkScaler(s *export.ScalerSpec, want int) error {
	if len(s.ScaleFx) == 0 || len(s.BiasFx) != len(s.ScaleFx) {
		return fmt.Errorf("scaler has %d scales and %d biases", len(s.ScaleFx), len(s.BiasFx))
	}
	if s.FracBits < 1 || s.FracBits > 15 || s.IntBits+s.FracBits != 16 {
		return fmt.Errorf("scaler INT(%d,%d) is not an INT16 split", s.FracBits, s.IntBits)
	}
	if s.OutBits < 1 || s.OutBits > 32 {
		return fmt.Errorf("scaler output width %d bits unsupported", s.OutBits)
	}
	if want > 0 && len(s.ScaleFx) != 1 && len(s.ScaleFx) != want {
		return fmt.Errorf("scaler has %d channels, kernel indexes %d", len(s.ScaleFx), want)
	}
	return nil
}

// FromCheckpoint reconstructs an executable Program from a checkpoint
// carrying a program section, resolving instruction weights against the
// checkpoint's tensor table.
func FromCheckpoint(ck *export.Checkpoint) (*Program, error) {
	if ck.Program == nil {
		return nil, fmt.Errorf("engine: checkpoint has no program section")
	}
	spec := ck.Program
	if spec.Version < minProgramSpecVersion || spec.Version > ProgramSpecVersion {
		return nil, fmt.Errorf("engine: program spec version %d, support %d..%d",
			spec.Version, minProgramSpecVersion, ProgramSpecVersion)
	}
	if spec.OptLevel < int(OptNone) || spec.OptLevel > int(OptFuse) {
		return nil, fmt.Errorf("engine: unknown program opt level %d", spec.OptLevel)
	}
	if err := checkTopology(spec); err != nil {
		return nil, err
	}
	if slices.ContainsFunc(spec.InShape, func(d int) bool { return d < 1 }) {
		return nil, fmt.Errorf("engine: input shape %v has a dimension below 1", spec.InShape)
	}
	if q := spec.InQuant; q.NBits < 1 || q.NBits > 32 || len(q.Scale) == 0 || len(q.Zero) != len(q.Scale) {
		return nil, fmt.Errorf("engine: input quantizer of %d bits with %d scales and %d zero points",
			q.NBits, len(q.Scale), len(q.Zero))
	}
	inQ := quant.NewQBase(spec.InQuant.NBits, spec.InQuant.Signed, len(spec.InQuant.Scale) > 1)
	inQ.SetScale(append([]float32(nil), spec.InQuant.Scale...), append([]int64(nil), spec.InQuant.Zero...))
	inQ.Calibrating = false
	p := &Program{
		InQuant:  inQ,
		OutScale: spec.OutScale,
		OutZero:  spec.OutZero,
		NumBufs:  spec.NumBufs,
		Input:    spec.Input,
		Output:   spec.Output,
		OptLevel: OptLevel(spec.OptLevel),
		InShape:  append([]int(nil), spec.InShape...),
	}
	written := map[string]bool{}
	for i := range spec.Instrs {
		is := &spec.Instrs[i]
		it := Instr{
			Kind: OpKind(is.Kind), Name: is.Name,
			In: append([]int(nil), is.In...), Out: is.Out,
		}
		var w *tensor.IntTensor
		if is.Weight != "" {
			var err error
			w, err = ck.Tensor(is.Weight)
			if err != nil {
				return nil, fmt.Errorf("engine: instr %d: %w", i, err)
			}
		}
		switch it.Kind {
		case OpConv, OpLinear:
			if w == nil || is.Scaler == nil {
				return nil, fmt.Errorf("engine: instr %d (%s) missing weight or scaler", i, is.Kind)
			}
			rank := 2
			if it.Kind == OpConv {
				rank = 4
			}
			if len(w.Shape) != rank || slices.Contains(w.Shape, 0) {
				return nil, fmt.Errorf("engine: instr %d (%s) weight shape %v, want rank %d and no empty dimension", i, is.Kind, w.Shape, rank)
			}
			if err := checkScaler(is.Scaler, w.Shape[0]); err != nil {
				return nil, fmt.Errorf("engine: instr %d (%s): %w", i, is.Kind, err)
			}
		case OpRescale, OpMatMul, OpLayerNorm:
			if is.Scaler == nil {
				return nil, fmt.Errorf("engine: instr %d (%s) missing scaler", i, is.Kind)
			}
			// Matmul scalers are unified (the kernel reads channel 0 only);
			// layernorm scalers are per-channel over the normalized width.
			want := 0
			switch it.Kind {
			case OpMatMul:
				want = 1
			case OpLayerNorm:
				want = is.LNDim
			}
			if err := checkScaler(is.Scaler, want); err != nil {
				return nil, fmt.Errorf("engine: instr %d (%s): %w", i, is.Kind, err)
			}
		case OpEmbed:
			if w == nil {
				return nil, fmt.Errorf("engine: instr %d (embed) missing positional code tensor", i)
			}
		}
		if is.FusedRescale != nil {
			if err := checkScaler(is.FusedRescale, 0); err != nil {
				return nil, fmt.Errorf("engine: instr %d (%s) fused rescale: %w", i, is.Kind, err)
			}
		}
		switch it.Kind {
		case OpConv:
			it.W = w
			it.P = tensor.ConvParams{Stride: is.Stride, Padding: is.Padding, Groups: is.Groups}
			it.InZero, it.WBits = is.InZero, is.WBits
			it.Scaler = scalerFromSpec(is.Scaler)
		case OpLinear:
			it.W = w
			it.InZero, it.WBits = is.InZero, is.WBits
			it.Scaler = scalerFromSpec(is.Scaler)
		case OpAvgPool:
			it.Kernel, it.Stride = is.Kernel, is.PoolStride
		case OpFlatten:
			// No attributes.
		case OpRescale:
			it.Scaler = scalerFromSpec(is.Scaler)
		case OpAdd:
			it.Shift, it.ClampLo, it.ClampHi = is.Shift, is.ClampLo, is.ClampHi
		case OpMatMul:
			it.TransposeB, it.ZA, it.ZB = is.TransposeB, is.ZA, is.ZB
			it.Scaler = scalerFromSpec(is.Scaler)
		case OpLayerNorm:
			if is.LNDim < 1 || is.LNK < 1 || is.LNFrac < 1 || is.LNFrac > 30 || is.LNEps < 0 {
				return nil, fmt.Errorf("engine: instr %d (layernorm) invalid constants D=%d K=%d frac=%d eps=%d",
					i, is.LNDim, is.LNK, is.LNFrac, is.LNEps)
			}
			it.LNDim, it.LNK, it.LNFrac, it.LNEps = is.LNDim, is.LNK, uint(is.LNFrac), is.LNEps
			it.Scaler = scalerFromSpec(is.Scaler)
		case OpSoftmax:
			sm, err := softmaxFromSpec(is.Softmax)
			if err != nil {
				return nil, fmt.Errorf("engine: instr %d (softmax): %w", i, err)
			}
			it.SM = sm
			it.ClampLo, it.ClampHi = 0, 1<<sm.OutBits-1
		case OpGelu:
			lut, err := lutFromSpec(is.Gelu, is.ClampLo, is.ClampHi)
			if err != nil {
				return nil, fmt.Errorf("engine: instr %d (gelu): %w", i, err)
			}
			it.Gelu = lut
			it.ClampLo, it.ClampHi = is.ClampLo, is.ClampHi
		case OpSplitHeads, OpMergeHeads:
			if is.Heads < 1 {
				return nil, fmt.Errorf("engine: instr %d (%s) has %d heads", i, is.Kind, is.Heads)
			}
			it.Heads = is.Heads
		case OpEmbed:
			if len(w.Shape) != 2 {
				return nil, fmt.Errorf("engine: instr %d (embed) positional tensor shape %v, want [T,D]", i, w.Shape)
			}
			if is.ClampLo > is.ClampHi {
				return nil, fmt.Errorf("engine: instr %d (embed) clamp [%d,%d] inverted", i, is.ClampLo, is.ClampHi)
			}
			it.Pos = w
			it.ClampLo, it.ClampHi = is.ClampLo, is.ClampHi
		case OpSliceCls:
			// No attributes.
		default:
			return nil, fmt.Errorf("engine: unknown serialized op kind %q", is.Kind)
		}
		if is.FusedRescale != nil {
			it.FusedRescale = scalerFromSpec(is.FusedRescale)
		}
		if is.FusedAdd {
			it.FusedAdd = true
			it.Shift, it.ClampLo, it.ClampHi = is.Shift, is.ClampLo, is.ClampHi
		}
		it.FlattenOut = is.FlattenOut
		// Spec names each code tensor after its instruction, so two
		// instructions of one name would re-export as one tensor.
		if name := it.weightName(); name != "" {
			if written[name] {
				return nil, fmt.Errorf("engine: instr %d (%s): a second instruction named %q", i, is.Kind, is.Name)
			}
			written[name] = true
		}
		p.Instrs = append(p.Instrs, it)
	}
	if err := p.checkDTypes(spec); err != nil {
		return nil, err
	}
	return p, nil
}

// checkTopology validates a spec's buffer numbering before anything
// indexes by it: at least one buffer, the input, output and every
// operand inside [0, NumBufs), and each instruction reading exactly its
// kind's operand count (plus the branch of a fused add). NumBufs is
// bounded by the instruction count: every buffer but the input is
// written by one instruction of the unfused program, and fusion folds
// at most three instructions (a rescale, an add and a flatten) into
// each one it keeps.
func checkTopology(spec *export.ProgramSpec) error {
	n := spec.NumBufs
	if n < 1 || n > 4*len(spec.Instrs)+1 {
		return fmt.Errorf("engine: %d buffers for %d instructions", n, len(spec.Instrs))
	}
	valid := func(b int) bool { return b >= 0 && b < n }
	if !valid(spec.Input) || !valid(spec.Output) {
		return fmt.Errorf("engine: input buffer %d or output buffer %d outside [0, %d)", spec.Input, spec.Output, n)
	}
	for i := range spec.Instrs {
		is := &spec.Instrs[i]
		want := 1
		if OpKind(is.Kind) == OpAdd || OpKind(is.Kind) == OpMatMul {
			want = 2
		}
		if is.FusedAdd {
			want++
		}
		if len(is.In) != want {
			return fmt.Errorf("engine: instr %d (%s) reads %d buffers, want %d", i, is.Kind, len(is.In), want)
		}
		if !valid(is.Out) || slices.ContainsFunc(is.In, func(b int) bool { return !valid(b) }) {
			return fmt.Errorf("engine: instr %d (%s) names a buffer outside [0, %d): in %v, out %d", i, is.Kind, n, is.In, is.Out)
		}
	}
	return nil
}

// lutFromSpec reconstructs a lookup table, rejecting corrupt payloads:
// the table must be non-empty and every entry must lie inside the
// instruction's declared output range — a table that can emit codes
// outside the planned storage dtype would silently wrap on the store.
func lutFromSpec(s *export.LUTSpec, lo, hi int64) (*intmath.LUT, error) {
	if s == nil || len(s.Table) == 0 {
		return nil, fmt.Errorf("missing or empty lookup table")
	}
	if lo > hi {
		return nil, fmt.Errorf("clamp range [%d,%d] inverted", lo, hi)
	}
	for i, v := range s.Table {
		if v < lo || v > hi {
			return nil, fmt.Errorf("table entry %d = %d outside declared range [%d,%d]", i, v, lo, hi)
		}
	}
	return &intmath.LUT{
		InMin:    s.InMin,
		InMax:    s.InMin + int64(len(s.Table)) - 1,
		Table:    append([]int64(nil), s.Table...),
		OutScale: s.OutScale,
	}, nil
}

// softmaxFromSpec reconstructs the integer softmax, validating the exp
// table: it must cover max-subtracted codes ending exactly at 0, hold
// only unsigned 16-bit fixed-point values, and declare a sane output
// width.
func softmaxFromSpec(s *export.SoftmaxSpec) (*intmath.LUTSoftmax, error) {
	if s == nil || len(s.ExpTable) == 0 {
		return nil, fmt.Errorf("missing or empty exp table")
	}
	if s.OutBits < 1 || s.OutBits > 16 {
		return nil, fmt.Errorf("probability width %d bits unsupported", s.OutBits)
	}
	if s.ExpInMin+int64(len(s.ExpTable))-1 != 0 {
		return nil, fmt.Errorf("exp table domain [%d, %d] does not end at 0",
			s.ExpInMin, s.ExpInMin+int64(len(s.ExpTable))-1)
	}
	for i, v := range s.ExpTable {
		if v < 0 || v > 0xFFFF {
			return nil, fmt.Errorf("exp table entry %d = %d outside UQ1.15 range", i, v)
		}
	}
	return &intmath.LUTSoftmax{
		Exp: &intmath.LUT{
			InMin:    s.ExpInMin,
			InMax:    0,
			Table:    append([]int64(nil), s.ExpTable...),
			OutScale: float32(1) / (1 << 15),
		},
		OutBits:   s.OutBits,
		ProbScale: 1 / float32(int64(1)<<s.OutBits-1),
	}, nil
}

// checkDTypes derives every buffer's code range, which rejects a
// program reading a buffer nothing wrote, and checks a v3+ spec's
// stored dtypes against it: storage is always derived from the program,
// but a checkpoint storing a buffer narrower than the codes its
// producer can emit is corrupt. Storing wider is allowed; v1/v2 specs
// carry no dtypes.
func (p *Program) checkDTypes(spec *export.ProgramSpec) error {
	rng, err := p.inferRanges()
	if err != nil {
		return err
	}
	if spec.Version < 3 || len(spec.BufDTypes) == 0 {
		return nil
	}
	if len(spec.BufDTypes) != p.NumBufs {
		return fmt.Errorf("engine: %d buffer dtypes for %d buffers", len(spec.BufDTypes), p.NumBufs)
	}
	for b, s := range spec.BufDTypes {
		dt, err := tensor.ParseDType(s)
		if err != nil {
			return fmt.Errorf("engine: buffer %d: %w", b, err)
		}
		if rng[b].ok && !dt.Contains(rng[b].lo, rng[b].hi) {
			return fmt.Errorf("engine: buffer %d stored as %s cannot hold derived code range [%d, %d]",
				b, dt, rng[b].lo, rng[b].hi)
		}
	}
	return nil
}
