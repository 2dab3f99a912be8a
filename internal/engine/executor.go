package engine

import (
	"fmt"
	"slices"

	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// Executor runs a Program for inputs of any batch size n up to the batch
// it was bound at. All inter-op buffers live in per-dtype arenas placed
// by the static planner at the bound batch (narrow dtypes store
// one/two/four bytes per element). Every op keeps batch as the outermost
// dimension, so a buffer's n-sample view is a prefix of its bound
// placement: the first execute at n builds that view set once, and
// every later execute at n reuses it. Scratch used inside kernels is
// grow-only and reused across calls, so steady-state Execute performs no
// allocation. An Executor is not safe for concurrent use — the Server
// gives each worker its own.
type Executor struct {
	prog *Program
	plan *Plan
	stor *storageInfo // typed-storage decisions (nil for I64-only registries)
	kern []KernelFunc // per-instr resolved kernel
	reg  *Registry

	// Per-dtype arenas; only the dtypes the plan uses are allocated.
	arI64 []int64
	arI8  []int8
	arU8  []uint8
	arI16 []int16
	arU16 []uint16
	arI32 []int32

	bound       int       // batch size the plan was placed for
	views       []*view   // per batch size n (index n), built on first use
	cur         *view     // the view the running execute binds
	scratchBufs [][]int64 // grow-only scratch of the unprepacked kernels (reference and elementwise)
	states      []any     // per-instr cached kernel state
	maxPar      int       // WithMaxParallel bound (0 = pool width)

	// Tracing (nil ring when no tracer was bound; the disabled path
	// then costs one nil check per Execute). Names are interned at bind
	// so recording never allocates.
	ring      *trace.Ring
	traceTID  int32
	instrName []uint32 // per-instr interned op-kind name

	// Prepacked-kernel support, sized at bind time by the registry's
	// prep hooks. slotScratch holds int64 words (the kernels' widened
	// staging chunks); slotU8 the SWAR byte panels; w32/w64 the gather
	// panels and GEMM accumulator tiles of each accumulator width.
	slotScratch [][]int64
	slotNeed    int
	slotU8      [][]uint8
	u8Need      int
	w32         slotBufs[int32]
	w64         slotBufs[int64]
}

// ExecOption configures NewExecutor.
type ExecOption func(*execConfig)

type execConfig struct {
	reg      *Registry
	maxPar   int
	tracer   *trace.Tracer
	ring     *trace.Ring
	traceTID int32
}

// WithKernels selects the kernel registry (default: DefaultKernels).
func WithKernels(r *Registry) ExecOption {
	return func(c *execConfig) { c.reg = r }
}

// WithMaxParallel caps how many worker-pool lanes this executor's
// kernels may occupy at once (0 or less = the pool's full width). A
// server binds each worker's executor with its KernelThreads, so
// concurrent executors share cores instead of oversubscribing them.
func WithMaxParallel(n int) ExecOption {
	return func(c *execConfig) {
		if n < 0 {
			n = 0
		}
		c.maxPar = n
	}
}

// WithTracer binds the executor to a span tracer with its own ring —
// the standalone form. Serving workers share one ring
// per engine.Server via WithTraceRing instead.
func WithTracer(t *trace.Tracer) ExecOption {
	return func(c *execConfig) { c.tracer = t }
}

// WithTraceRing records this executor's spans into an existing ring,
// tagged with lane id tid (the Chrome-trace thread the spans land on —
// servers pass the worker index).
func WithTraceRing(r *trace.Ring, tid int32) ExecOption {
	return func(c *execConfig) { c.ring, c.traceTID = r, tid }
}

// NewExecutor plans and binds a program for inputs of shape inShape
// (full shape including the batch dimension, e.g. [8,3,32,32]); the
// executor then runs any batch of 1..inShape[0] samples in that plan's
// arenas.
func NewExecutor(p *Program, inShape []int, opts ...ExecOption) (*Executor, error) {
	if len(inShape) == 0 || inShape[0] < 1 {
		return nil, fmt.Errorf("engine: input shape %v has no batch dimension", inShape)
	}
	cfg := execConfig{reg: DefaultKernels()}
	for _, o := range opts {
		o(&cfg)
	}
	reg := cfg.reg.Clone()
	if err := checkKernels(p, reg); err != nil {
		return nil, err
	}
	var plan *Plan
	var stor *storageInfo
	var err error
	if reg.typed {
		// The typed kernel set executes narrow buffers; registries with
		// custom kernels plan I64 so `in.Data` stays valid everywhere.
		if stor, err = p.storage(); err != nil {
			return nil, err
		}
		plan, err = p.packProgram(inShape, stor.dts)
	} else {
		plan, err = p.PlanBuffersI64(inShape)
	}
	if err != nil {
		return nil, err
	}
	ex := &Executor{
		prog:        p,
		plan:        plan,
		stor:        stor,
		reg:         reg,
		bound:       inShape[0],
		views:       make([]*view, inShape[0]+1),
		scratchBufs: make([][]int64, 4),
		states:      make([]any, len(p.Instrs)),
		maxPar:      cfg.maxPar,
	}
	ex.arI64 = make([]int64, plan.ArenaElems[tensor.I64])
	ex.arI8 = make([]int8, plan.ArenaElems[tensor.I8])
	ex.arU8 = make([]uint8, plan.ArenaElems[tensor.U8])
	ex.arI16 = make([]int16, plan.ArenaElems[tensor.I16])
	ex.arU16 = make([]uint16, plan.ArenaElems[tensor.U16])
	ex.arI32 = make([]int32, plan.ArenaElems[tensor.I32])
	ex.kern = make([]KernelFunc, len(p.Instrs))
	for i := range p.Instrs {
		ex.kern[i], _ = reg.Lookup(p.Instrs[i].Kind)
	}
	// Bind-time prep: prepack weights, epilogue constants and conv
	// geometry so the first Execute already runs the steady state.
	for i := range p.Instrs {
		prep, ok := reg.lookupPrep(p.Instrs[i].Kind)
		if !ok {
			continue
		}
		st, err := prep(ex, i, &p.Instrs[i])
		if err != nil {
			return nil, err
		}
		ex.states[i] = st
	}
	if ex.slotNeed > 0 || ex.u8Need > 0 || ex.w32.needed() || ex.w64.needed() {
		slots := tensor.MaxParallelSlots()
		ex.slotScratch = makeSlots[int64](slots, ex.slotNeed)
		ex.slotU8 = makeSlots[uint8](slots, ex.u8Need)
		ex.w32.alloc(slots)
		ex.w64.alloc(slots)
	}
	if _, err := ex.viewAt(ex.bound); err != nil {
		return nil, err
	}
	ex.bindTrace(&cfg)
	return ex, nil
}

// view is the executor bound at one batch size n: every placed buffer's
// n-sample view, the per-instruction operand lists, and the job grids of
// the prepacked states, so an execute at n does no shape math and no
// allocation.
type view struct {
	bufs  []*tensor.IntTensor
	opIns [][]*tensor.IntTensor
	grids []jobGrid // per instruction; zero when the state exposes no job grid
}

// jobGrid is one pool pass: body runs job j on a parallel slot, for j in
// [0, n).
type jobGrid struct {
	body     func(job, slot int)
	n        int
	parallel bool
}

// viewAt returns the executor's view at batch n (1 ≤ n ≤ bound), building
// it on first use. Every op keeps batch as the outermost dimension, so a
// buffer's n-sample shape — InferShapes at [n, sample…] — covers exactly
// the first n/bound of its bound placement, at the same plan offset.
func (ex *Executor) viewAt(n int) (*view, error) {
	if n < 1 || n > ex.bound {
		return nil, fmt.Errorf("engine: batch %d outside the executor's bound 1..%d", n, ex.bound)
	}
	if v := ex.views[n]; v != nil {
		return v, nil
	}
	p := ex.prog
	shapes := ex.plan.Shapes
	if n != ex.bound {
		var err error
		if shapes, err = p.InferShapes(append([]int{n}, ex.InShape()[1:]...)); err != nil {
			return nil, err
		}
	}
	v := &view{
		bufs:  make([]*tensor.IntTensor, p.NumBufs),
		opIns: make([][]*tensor.IntTensor, len(p.Instrs)),
		grids: make([]jobGrid, len(p.Instrs)),
	}
	for b := 0; b < p.NumBufs; b++ {
		if ex.plan.Offsets[b] < 0 {
			continue
		}
		if tensor.Numel(shapes[b])*ex.bound != tensor.Numel(ex.plan.Shapes[b])*n {
			return nil, fmt.Errorf("engine: buffer %d is %v at batch %d, not a batch-major prefix of %v",
				b, shapes[b], n, ex.plan.Shapes[b])
		}
		v.bufs[b] = ex.arenaView(ex.plan.DTypes[b], ex.plan.Offsets[b], shapes[b])
	}
	for i := range p.Instrs {
		it := &p.Instrs[i]
		ops := make([]*tensor.IntTensor, len(it.In))
		for j, b := range it.In {
			ops[j] = v.bufs[b]
		}
		v.opIns[i] = ops
		if st, ok := ex.states[i].(gridRunner); ok {
			g := &v.grids[i]
			g.body, g.n, g.parallel = st.jobs(ex, i, it, ops, v.bufs[it.Out])
		}
	}
	ex.views[n] = v
	return v, nil
}

// viewOf validates an input shape — [n, sample…] with the bound
// per-sample shape — and returns the view at n.
func (ex *Executor) viewOf(shape []int) (*view, error) {
	want := ex.InShape()
	if len(shape) != len(want) || !slices.Equal(shape[1:], want[1:]) {
		return nil, fmt.Errorf("engine: input %v does not match planned shape %v", shape, want)
	}
	return ex.viewAt(shape[0])
}

// viewOfElems returns the view whose input holds elems elements — the
// float API's check, which accepts any layout of n whole samples.
func (ex *Executor) viewOfElems(elems int) (*view, error) {
	want := ex.InShape()
	per := tensor.Numel(want) / ex.bound
	if elems == 0 || elems%per != 0 {
		return nil, fmt.Errorf("engine: %d input elements are not whole samples of planned shape %v", elems, want)
	}
	return ex.viewAt(elems / per)
}

// bindTrace resolves the tracing options: interns every instruction's
// op-kind name so the recording hot path is a clock read and a ring
// write, nothing else.
func (ex *Executor) bindTrace(cfg *execConfig) {
	ring, tid := cfg.ring, cfg.traceTID
	if ring == nil && cfg.tracer != nil {
		ring = cfg.tracer.NewRing()
	}
	if ring == nil {
		return
	}
	ex.ring, ex.traceTID = ring, tid
	t := ring.Tracer()
	ex.instrName = make([]uint32, len(ex.prog.Instrs))
	for i := range ex.prog.Instrs {
		ex.instrName[i] = t.Intern(string(ex.prog.Instrs[i].Kind))
	}
}

// arenaView builds a typed tensor header over the dtype's arena.
func (ex *Executor) arenaView(dt tensor.DType, off int, shape []int) *tensor.IntTensor {
	n := tensor.Numel(shape)
	t := &tensor.IntTensor{Shape: append([]int(nil), shape...), DType: dt}
	switch dt {
	case tensor.I8:
		t.I8 = ex.arI8[off : off+n]
	case tensor.U8:
		t.U8 = ex.arU8[off : off+n]
	case tensor.I16:
		t.I16 = ex.arI16[off : off+n]
	case tensor.U16:
		t.U16 = ex.arU16[off : off+n]
	case tensor.I32:
		t.I32 = ex.arI32[off : off+n]
	default:
		t.Data = ex.arI64[off : off+n]
	}
	return t
}

// typedInstr reports whether instruction idx takes the narrow
// int32-accumulate path under this executor's registry.
func (ex *Executor) typedInstr(idx int) bool {
	return ex.stor != nil && ex.stor.typed[idx]
}

// NeedSlotScratch is called by prep hooks to reserve per-parallel-slot
// int64 scratch words; the executor allocates the maximum requested once.
func (ex *Executor) NeedSlotScratch(words int) {
	if words > ex.slotNeed {
		ex.slotNeed = words
	}
}

// needSlotU8 reserves per-slot byte scratch (the SWAR gather panels).
func (ex *Executor) needSlotU8(elems int) {
	ex.u8Need = max(ex.u8Need, elems)
}

// SlotScratch returns the int64 scratch slice owned by a parallel slot.
func (ex *Executor) SlotScratch(slot int) []int64 { return ex.slotScratch[slot] }

// slotBufs is one accumulator width's per-slot scratch: gather panels
// (or widened input slabs) and GEMM accumulator tiles. Each slot is
// touched only by the job the pool hands it, which is what lets the
// conv/linear job grids run on any pool lane.
type slotBufs[C accum] struct {
	panelNeed, accNeed int
	panel, acc         [][]C
}

// reserve raises the per-slot panel and accumulator-tile sizes.
func (b *slotBufs[C]) reserve(panel, acc int) {
	b.panelNeed = max(b.panelNeed, panel)
	b.accNeed = max(b.accNeed, acc)
}

func (b *slotBufs[C]) needed() bool { return b.panelNeed > 0 || b.accNeed > 0 }

func (b *slotBufs[C]) alloc(slots int) {
	b.panel = makeSlots[C](slots, b.panelNeed)
	b.acc = makeSlots[C](slots, b.accNeed)
}

func (b *slotBufs[C]) bytes() int64 {
	size := int64(4)
	if isWide[C]() {
		size = 8
	}
	return int64(len(b.panel)*b.panelNeed+len(b.acc)*b.accNeed) * size
}

// slotsOf returns the executor's slot scratch of accumulator width C.
func slotsOf[C accum](ex *Executor) *slotBufs[C] {
	if b, ok := any(&ex.w32).(*slotBufs[C]); ok {
		return b
	}
	return any(&ex.w64).(*slotBufs[C])
}

// makeSlots allocates n elements for each of slots parallel slots (nil
// when nothing was reserved).
func makeSlots[T any](slots, n int) [][]T {
	if n == 0 {
		return nil
	}
	s := make([][]T, slots)
	for i := range s {
		s[i] = make([]T, n)
	}
	return s
}

// ScratchBytes reports the executor's kernel scratch footprint: planned
// per-slot panels and accumulator tiles plus the grow-only buffers the
// unprepacked kernels have claimed so far (stable once each batch size
// that will run has run once).
func (ex *Executor) ScratchBytes() int64 {
	bytes := int64(len(ex.slotScratch)*ex.slotNeed) * 8
	bytes += int64(len(ex.slotU8) * ex.u8Need)
	bytes += ex.w32.bytes() + ex.w64.bytes()
	for _, s := range ex.scratchBufs {
		bytes += int64(cap(s)) * 8
	}
	return bytes
}

// Plan exposes the executor's buffer placement (for reporting).
func (ex *Executor) Plan() *Plan { return ex.plan }

// InShape returns the input shape the executor was planned for.
func (ex *Executor) InShape() []int { return ex.plan.Shapes[ex.prog.Input] }

// ExecuteCodes runs the program on already-quantized input codes of
// shape [n, sample…] for any 1 ≤ n ≤ the bound batch, writing results
// into dst (allocated if nil) and returning it. The returned tensor is
// caller-owned; arena storage is reused by the next call.
func (ex *Executor) ExecuteCodes(codes *tensor.IntTensor, dst *tensor.IntTensor) (*tensor.IntTensor, error) {
	v, err := ex.viewOf(codes.Shape)
	if err != nil {
		return nil, err
	}
	in := v.bufs[ex.prog.Input]
	n := in.Numel()
	if in.DType != tensor.I64 {
		// The input buffer is stored narrow because the quantizer's code
		// range fits it; codes outside that range would silently wrap on
		// the narrowing store (and void the int32 accumulator bound), so
		// reject them — the I64 engine computed garbage-in-garbage-out,
		// but never a different value than the interpreter.
		lo, hi := in.DType.Range()
		for i := 0; i < n; i++ {
			if c := codes.Get(i); c < lo || c > hi {
				return nil, fmt.Errorf("engine: input code %d at %d outside the planned %s storage range [%d, %d]",
					c, i, in.DType, lo, hi)
			}
		}
	}
	out := v.bufs[ex.prog.Output]
	if dst == nil {
		dst = tensor.NewInt(out.Shape...)
	} else if dst.Numel() != out.Numel() {
		return nil, fmt.Errorf("engine: dst %v does not match output shape %v", dst.Shape, out.Shape)
	}
	if in.DType == tensor.I64 && codes.DType == tensor.I64 {
		copy(in.Data, codes.Data)
	} else if codes.DType == tensor.I64 {
		in.WriteInt64(codes.Data, 0)
	} else {
		for i := 0; i < n; i++ {
			in.Put(i, codes.Get(i))
		}
	}
	ex.run(v)
	if out.DType == tensor.I64 && dst.DType == tensor.I64 {
		copy(dst.Data, out.Data)
	} else if dst.DType == tensor.I64 {
		out.ReadInt64(dst.Data, 0)
	} else {
		outN := out.Numel()
		for i := 0; i < outN; i++ {
			dst.Put(i, out.Get(i))
		}
	}
	return dst, nil
}

// Execute runs the full float→int→float pipeline exactly like
// IntModel.Forward: quantize at the boundary, execute the integer
// program, dequantize the output codes to logits. x holds n whole
// samples, 1 ≤ n ≤ the bound batch.
func (ex *Executor) Execute(x *tensor.Tensor) (*tensor.Tensor, error) {
	v, err := ex.viewOfElems(len(x.Data))
	if err != nil {
		return nil, err
	}
	ex.prog.InQuant.QuantizeTo(v.bufs[ex.prog.Input], x)
	ex.run(v)
	codes := v.bufs[ex.prog.Output]
	out := tensor.New(codes.Shape...)
	ex.DequantizeInto(out, codes)
	return out, nil
}

// ExecuteInto is Execute writing logits into a caller-owned tensor, the
// zero-alloc path the serving runtime uses.
func (ex *Executor) ExecuteInto(out *tensor.Tensor, x *tensor.Tensor) error {
	v, err := ex.viewOfElems(len(x.Data))
	if err != nil {
		return err
	}
	codes := v.bufs[ex.prog.Output]
	if len(out.Data) != codes.Numel() {
		return fmt.Errorf("engine: out %v does not match output shape %v", out.Shape, codes.Shape)
	}
	ex.prog.InQuant.QuantizeTo(v.bufs[ex.prog.Input], x)
	ex.run(v)
	ex.DequantizeInto(out, codes)
	return nil
}

// DequantizeInto maps output codes to float logits with the program's
// output scale/zero.
func (ex *Executor) DequantizeInto(out *tensor.Tensor, codes *tensor.IntTensor) {
	if codes.DType == tensor.I64 {
		for i, c := range codes.Data {
			out.Data[i] = float32(c-ex.prog.OutZero) * ex.prog.OutScale
		}
		return
	}
	for i := range out.Data {
		out.Data[i] = float32(codes.Get(i)-ex.prog.OutZero) * ex.prog.OutScale
	}
}

// OutShape returns the planned output logits shape.
func (ex *Executor) OutShape() []int { return ex.plan.Shapes[ex.prog.Output] }

// DequantizeOutput maps output codes to float logits with the exact
// per-element expression DequantizeInto uses, so callers that carry
// codes end to end (the serving cache path) produce floats
// bit-identical to the executor's own dequantize.
func (p *Program) DequantizeOutput(codes []int64, shape []int) *tensor.Tensor {
	out := tensor.New(shape...)
	for i, c := range codes {
		out.Data[i] = float32(c-p.OutZero) * p.OutScale
	}
	return out
}

// run executes the program on view v in program order, one instruction
// at a time; each kernel may split its own work across pool lanes.
func (ex *Executor) run(v *view) {
	ex.cur = v
	if ex.ring.Active() {
		ex.runTraced(v)
		return
	}
	for i := range ex.prog.Instrs {
		ex.runInstr(v, i)
	}
}

// runTraced is run() with span recording: every instruction gets a
// KindInstr span (A0 = output-buffer bytes at this batch, A1 =
// instruction index).
func (ex *Executor) runTraced(v *view) {
	r := ex.ring
	for i := range ex.prog.Instrs {
		start := r.Now()
		ex.runInstr(v, i)
		out := v.bufs[ex.prog.Instrs[i].Out]
		r.Record(trace.Span{
			Start: start, Dur: r.Now() - start, Name: ex.instrName[i],
			Kind: trace.KindInstr, TID: ex.traceTID,
			A0: int64(out.Numel()) * int64(out.DType.Size()), A1: int64(i),
		})
	}
}

// runInstr dispatches one instruction through its bound kernel on view
// v (the kernel may parallelize internally).
func (ex *Executor) runInstr(v *view, i int) {
	it := &ex.prog.Instrs[i]
	ex.kern[i](ex, i, it, v.opIns[i], v.bufs[it.Out])
}

// KernelState returns the cached state slot for instruction idx. Kernels
// store per-instruction tensor headers or precomputed shape math there on
// first execution and reuse it afterwards, which keeps the steady state
// allocation-free.
func (ex *Executor) KernelState(idx int) *any { return &ex.states[idx] }

// scratch returns a grow-only int64 slice of at least n words for kernel
// slot i; contents are undefined.
func (ex *Executor) scratch(i, n int) []int64 {
	if cap(ex.scratchBufs[i]) < n {
		ex.scratchBufs[i] = make([]int64, n)
	}
	return ex.scratchBufs[i][:n]
}
