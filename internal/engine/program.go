// Package engine compiles the fused integer deploy model (fuse.IntModel)
// into an explicit graph IR — a topologically ordered instruction list
// over numbered integer buffers — and executes it with pluggable kernels,
// a static liveness-planned buffer arena, and a batched serving runtime.
//
// The interpreter (IntModel.Forward) walks a tree of IntLayers and
// allocates a fresh tensor at every op; it remains the semantic oracle.
// The engine runs the same integer arithmetic instruction by instruction,
// bit-identically, but with all intermediate storage placed once at plan
// time and reused across calls, which is what a serving runtime needs.
package engine

import (
	"fmt"
	"sync"

	"torch2chip/internal/fuse"
	"torch2chip/internal/intmath"
	"torch2chip/internal/quant"
	"torch2chip/internal/tensor"
)

// OpKind names an instruction's operation; kernels are registered per kind.
type OpKind string

// Instruction kinds lowered from the deploy pipeline.
const (
	OpConv    OpKind = "conv"    // integer conv + MulQuant rescale
	OpLinear  OpKind = "linear"  // integer matmul + MulQuant rescale
	OpAvgPool OpKind = "avgpool" // integer average pooling
	OpFlatten OpKind = "flatten" // reshape; aliases its input buffer
	OpRescale OpKind = "rescale" // bare MulQuant stage
	OpAdd     OpKind = "resadd"  // residual add with shift-back and clamp

	// Transformer instruction kinds (spec version ≥ 4), lowered from the
	// integer ViT deploy layers.
	OpMatMul     OpKind = "matmul"      // batched zero-corrected matmul + MulQuant
	OpLayerNorm  OpKind = "layernorm"   // integer LayerNorm + γ/β MulQuant
	OpSoftmax    OpKind = "softmax"     // LUT integer softmax over the last dim
	OpGelu       OpKind = "gelu"        // elementwise GELU lookup table
	OpSplitHeads OpKind = "split_heads" // [N,T,D] → [N·H,T,D/H] transpose copy
	OpMergeHeads OpKind = "merge_heads" // [N·H,T,dh] → [N,T,dh·H] inverse copy
	OpEmbed      OpKind = "embed"       // NCHW → tokens + positional/class add
	OpSliceCls   OpKind = "cls"         // [N,T,D] → [N,D] class-token slice
)

// Instr is one operation over numbered buffers. Only the attribute fields
// relevant to Kind are set.
type Instr struct {
	Kind OpKind
	// Name mirrors the IntModel tree path (e.g. "layers.3.body.0") so
	// instruction weights share names with fuse.IntModel.IntTensors.
	Name string
	In   []int
	Out  int

	// Conv / linear attributes.
	W      *tensor.IntTensor
	P      tensor.ConvParams
	InZero int64
	Scaler *intmath.MulQuant // also set for rescale
	WBits  int

	// Avgpool attributes.
	Kernel, Stride int

	// Residual-add attributes, also used by a FusedAdd epilogue. Embed,
	// gelu, and softmax instructions reuse ClampLo/ClampHi as their
	// declared output code range (gelu/softmax tables are validated
	// against it at load time).
	Shift            int
	ClampLo, ClampHi int64

	// Transformer attributes (only for the v4 instruction kinds).
	TransposeB bool                // matmul: A×Bᵀ (QKᵀ) vs A×B (attn·V)
	ZA, ZB     int64               // matmul operand zero points
	Heads      int                 // split_heads / merge_heads
	LNDim      int                 // layernorm: normalized width D
	LNK        int64               // layernorm: round(√D · 2^LNFrac)
	LNFrac     uint                // layernorm: fixed-point bits of x̂
	LNEps      int64               // layernorm: code-domain epsilon add
	Gelu       *intmath.LUT        // gelu lookup table
	SM         *intmath.LUTSoftmax // softmax exp table + prob width
	Pos        *tensor.IntTensor   // embed: [T,D] positional+class codes

	// Fused epilogue, attached by the Optimize pass. The value pipeline
	// per output element is: own op (+ Scaler) → FusedRescale →
	// FusedAdd(+Shift/Clamp) → output write; FlattenOut only reshapes
	// the written buffer. Kernels must honor all three.
	FusedRescale *intmath.MulQuant // folded OpRescale consumer
	FusedAdd     bool              // folded OpAdd: last In entry is the other branch
	FlattenOut   bool              // folded OpFlatten: output is the 2-D view
}

// AddOperand returns the buffer id of the fused residual branch (the
// last input) for instructions carrying a FusedAdd epilogue.
func (it *Instr) AddOperand() int { return it.In[len(it.In)-1] }

// Program is the compiled integer inference graph: a topo-ordered
// instruction list plus the float↔code boundary parameters. A Program
// is immutable once built (by Lower, Optimize or FromCheckpoint):
// storage dtypes, the sparsity analysis and prepacked weights are
// derived from it once and cached on it, and a changed model is a new
// Program. Its Spec is its one definition.
type Program struct {
	InQuant  *quant.QBase
	OutScale float32
	OutZero  int64

	Instrs  []Instr
	NumBufs int
	Input   int // buffer holding input codes
	Output  int // buffer holding output codes

	// OptLevel records which optimization pass produced this program
	// (OptNone for freshly lowered programs); it round-trips through
	// checkpoints so a reloaded artifact is the exact one benchmarked.
	OptLevel OptLevel

	// InShape is the single-sample input shape the model was compiled
	// for (no batch dimension). It round-trips through checkpoints so a
	// serving registry can build its engine server without being told the
	// shape out of band; nil on pre-PR-3 checkpoints.
	InShape []int

	// pack caches prepacked kernel state that is batch- and
	// executor-independent (weight panels, epilogue constants with
	// the zero-point correction folded into the bias), so a server's many (worker, batch-size) executors
	// bind against one copy instead of re-packing the model each time.
	pack *packCache

	// stor caches the resolved typed-storage plan (guarded by
	// packInitMu; see storage()).
	stor *storageInfo

	// spar caches the per-instruction weight-sparsity analysis (guarded
	// by packInitMu; see sparsity()).
	spar []instrSparsity
}

// packInitMu guards lazy creation of the per-program pack cache, so
// concurrently built executors (server workers) agree on one cache.
var packInitMu sync.Mutex

func (p *Program) packs() *packCache {
	packInitMu.Lock()
	if p.pack == nil {
		p.pack = &packCache{}
	}
	pc := p.pack
	packInitMu.Unlock()
	return pc
}

func (p *Program) newBuf() int {
	id := p.NumBufs
	p.NumBufs++
	return id
}

// Lower compiles an IntModel into a Program. The resulting program
// executes bit-identically to im.Forward for any input.
func Lower(im *fuse.IntModel) (*Program, error) {
	p := &Program{InQuant: im.InQuant, OutScale: im.OutScale, OutZero: im.OutZero}
	p.Input = p.newBuf()
	out, err := p.lowerSeq(im.Layers, p.Input, "layers.")
	if err != nil {
		return nil, err
	}
	p.Output = out
	return p, nil
}

// lowerSeq appends instructions for a layer chain starting from buffer
// cur and returns the buffer holding the chain's output codes.
func (p *Program) lowerSeq(layers []fuse.IntLayer, cur int, prefix string) (int, error) {
	for i, l := range layers {
		name := fmt.Sprintf("%s%d", prefix, i)
		switch v := l.(type) {
		case *fuse.IntConv2d:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpConv, Name: name, In: []int{cur}, Out: out,
				W: v.W, P: v.P, InZero: v.InZero, Scaler: v.Scaler, WBits: v.WBits,
			})
			cur = out
		case *fuse.IntLinear:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpLinear, Name: name, In: []int{cur}, Out: out,
				W: v.W, InZero: v.InZero, Scaler: v.Scaler, WBits: v.WBits,
			})
			cur = out
		case *fuse.IntAvgPool:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpAvgPool, Name: name, In: []int{cur}, Out: out,
				Kernel: v.Kernel, Stride: v.Stride,
			})
			cur = out
		case fuse.IntFlatten:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{Kind: OpFlatten, Name: name, In: []int{cur}, Out: out})
			cur = out
		case *fuse.IntRescale:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpRescale, Name: name, In: []int{cur}, Out: out, Scaler: v.Scaler,
			})
			cur = out
		case *fuse.IntPatchEmbed:
			conv := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpConv, Name: name, In: []int{cur}, Out: conv,
				W: v.Conv.W, P: v.Conv.P, InZero: v.Conv.InZero, Scaler: v.Conv.Scaler, WBits: v.Conv.WBits,
			})
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpEmbed, Name: name + ".embed", In: []int{conv}, Out: out,
				Pos: v.PosCls, ClampLo: v.ClampLo, ClampHi: v.ClampHi,
			})
			cur = out
		case *fuse.IntLayerNorm:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpLayerNorm, Name: name, In: []int{cur}, Out: out,
				LNDim: v.D, LNK: v.K, LNFrac: v.FB, LNEps: v.EpsAdd, Scaler: v.Scaler,
			})
			cur = out
		case *fuse.IntGELU:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpGelu, Name: name, In: []int{cur}, Out: out,
				Gelu: v.LUT, ClampLo: v.OutLo, ClampHi: v.OutHi,
			})
			cur = out
		case fuse.IntSliceCls:
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{Kind: OpSliceCls, Name: name, In: []int{cur}, Out: out})
			cur = out
		case *fuse.IntAttention:
			out, err := p.lowerAttention(v, cur, name)
			if err != nil {
				return 0, err
			}
			cur = out
		case *fuse.IntResidual:
			body, err := p.lowerSeq(v.Body, cur, name+".body.")
			if err != nil {
				return 0, err
			}
			short, err := p.lowerSeq(v.Shortcut, cur, name+".shortcut.")
			if err != nil {
				return 0, err
			}
			out := p.newBuf()
			p.Instrs = append(p.Instrs, Instr{
				Kind: OpAdd, Name: name, In: []int{body, short}, Out: out,
				Shift: v.Shift, ClampLo: v.ClampLo, ClampHi: v.ClampHi,
			})
			cur = out
		default:
			return 0, fmt.Errorf("engine: cannot lower layer %T", l)
		}
	}
	return cur, nil
}

// lowerAttention appends the instruction sequence of one integer
// attention block: three projections, head splits, the two requantized
// batched matmuls around the integer softmax, head merge, and the output
// projection.
func (p *Program) lowerAttention(v *fuse.IntAttention, cur int, name string) (int, error) {
	if v.Heads <= 0 || v.D%v.Heads != 0 {
		return 0, fmt.Errorf("engine: attention %s dim %d not divisible by %d heads", name, v.D, v.Heads)
	}
	lin := func(suffix string, l *fuse.IntLinear, in int) int {
		out := p.newBuf()
		p.Instrs = append(p.Instrs, Instr{
			Kind: OpLinear, Name: name + suffix, In: []int{in}, Out: out,
			W: l.W, InZero: l.InZero, Scaler: l.Scaler, WBits: l.WBits,
		})
		return out
	}
	split := func(suffix string, in int) int {
		out := p.newBuf()
		p.Instrs = append(p.Instrs, Instr{
			Kind: OpSplitHeads, Name: name + suffix, In: []int{in}, Out: out, Heads: v.Heads,
		})
		return out
	}
	q := split(".qh", lin(".q", v.Q, cur))
	k := split(".kh", lin(".k", v.K, cur))
	vv := split(".vh", lin(".v", v.V, cur))
	logits := p.newBuf()
	p.Instrs = append(p.Instrs, Instr{
		Kind: OpMatMul, Name: name + ".qk", In: []int{q, k}, Out: logits,
		TransposeB: true, ZA: v.QKZA, ZB: v.QKZB, Scaler: v.QKScale,
	})
	probs := p.newBuf()
	p.Instrs = append(p.Instrs, Instr{
		Kind: OpSoftmax, Name: name + ".softmax", In: []int{logits}, Out: probs,
		SM: v.Softmax, ClampLo: 0, ClampHi: 1<<v.Softmax.OutBits - 1,
	})
	av := p.newBuf()
	p.Instrs = append(p.Instrs, Instr{
		Kind: OpMatMul, Name: name + ".av", In: []int{probs, vv}, Out: av,
		ZA: 0, ZB: v.AVZB, Scaler: v.AVScale,
	})
	merged := p.newBuf()
	p.Instrs = append(p.Instrs, Instr{
		Kind: OpMergeHeads, Name: name + ".merge", In: []int{av}, Out: merged, Heads: v.Heads,
	})
	return lin(".proj", v.Proj, merged), nil
}

// InferShapes computes the shape of every buffer for a given input shape,
// validating instruction operands along the way.
func (p *Program) InferShapes(inShape []int) ([][]int, error) {
	shapes := make([][]int, p.NumBufs)
	shapes[p.Input] = append([]int(nil), inShape...)
	for idx, it := range p.Instrs {
		for _, b := range it.In {
			if shapes[b] == nil {
				return nil, fmt.Errorf("engine: instr %d (%s) reads undefined buffer %d", idx, it.Kind, b)
			}
		}
		in := shapes[it.In[0]]
		var natural []int
		switch it.Kind {
		case OpConv:
			if len(in) != 4 {
				return nil, fmt.Errorf("engine: %s input rank %d, want NCHW", it.Name, len(in))
			}
			o, kH, kW := it.W.Shape[0], it.W.Shape[2], it.W.Shape[3]
			pp := it.P
			if pp.Stride <= 0 {
				pp.Stride = 1
			}
			groups := pp.Groups
			if groups <= 0 {
				groups = 1
			}
			if in[1] != it.W.Shape[1]*groups {
				return nil, fmt.Errorf("engine: %s input channels %d, weight %v with %d groups expects %d",
					it.Name, in[1], it.W.Shape, groups, it.W.Shape[1]*groups)
			}
			// The window must fit the padded input: ConvOutSize truncates
			// toward zero, so a larger window would still yield 1.
			if pp.Padding < 0 {
				return nil, fmt.Errorf("engine: %s negative padding %d", it.Name, pp.Padding)
			}
			if in[2]+2*pp.Padding < kH || in[3]+2*pp.Padding < kW {
				return nil, fmt.Errorf("engine: %s input %v with padding %d too small for %dx%d kernel", it.Name, in, pp.Padding, kH, kW)
			}
			natural = []int{in[0], o, pp.ConvOutSize(in[2], kH), pp.ConvOutSize(in[3], kW)}
		case OpLinear:
			// Row-major [..., K] inputs of any rank ≥ 2: the kernel treats
			// leading dimensions as rows (ViT token tensors are [N,T,D]).
			if len(in) < 2 || in[len(in)-1] != it.W.Shape[1] {
				return nil, fmt.Errorf("engine: %s input %v incompatible with weight %v", it.Name, in, it.W.Shape)
			}
			natural = append(append([]int(nil), in[:len(in)-1]...), it.W.Shape[0])
		case OpAvgPool:
			if len(in) != 4 {
				return nil, fmt.Errorf("engine: %s input rank %d, want NCHW", it.Name, len(in))
			}
			switch {
			case it.Kernel == 0:
				natural = []int{in[0], in[1], 1, 1}
			case it.Kernel < 0 || it.Kernel > in[2] || it.Kernel > in[3]:
				return nil, fmt.Errorf("engine: %s pool kernel %d outside [1, %d] for input %v", it.Name, it.Kernel, min(in[2], in[3]), in)
			default:
				st := it.Stride
				if st <= 0 {
					st = it.Kernel
				}
				natural = []int{in[0], in[1], (in[2]-it.Kernel)/st + 1, (in[3]-it.Kernel)/st + 1}
			}
		case OpFlatten:
			natural = []int{in[0], tensor.Numel(in) / in[0]}
		case OpRescale:
			natural = append([]int(nil), in...)
		case OpAdd:
			b, s := shapes[it.In[0]], shapes[it.In[1]]
			if tensor.Numel(b) != tensor.Numel(s) {
				return nil, fmt.Errorf("engine: %s branch shapes %v vs %v", it.Name, b, s)
			}
			natural = append([]int(nil), b...)
		case OpMatMul:
			bsh := shapes[it.In[1]]
			if len(in) != 3 || len(bsh) != 3 || in[0] != bsh[0] {
				return nil, fmt.Errorf("engine: %s operands %v × %v, want matching [B,·,·]", it.Name, in, bsh)
			}
			if it.TransposeB {
				if in[2] != bsh[2] {
					return nil, fmt.Errorf("engine: %s inner dims %v × %vᵀ", it.Name, in, bsh)
				}
				natural = []int{in[0], in[1], bsh[1]}
			} else {
				if in[2] != bsh[1] {
					return nil, fmt.Errorf("engine: %s inner dims %v × %v", it.Name, in, bsh)
				}
				natural = []int{in[0], in[1], bsh[2]}
			}
		case OpLayerNorm:
			if len(in) < 2 || in[len(in)-1] != it.LNDim {
				return nil, fmt.Errorf("engine: %s input %v does not end in D=%d", it.Name, in, it.LNDim)
			}
			natural = append([]int(nil), in...)
		case OpSoftmax, OpGelu:
			if len(in) < 1 {
				return nil, fmt.Errorf("engine: %s scalar input", it.Name)
			}
			natural = append([]int(nil), in...)
		case OpSplitHeads:
			if len(in) != 3 || it.Heads <= 0 || in[2]%it.Heads != 0 {
				return nil, fmt.Errorf("engine: %s input %v not splittable into %d heads", it.Name, in, it.Heads)
			}
			natural = []int{in[0] * it.Heads, in[1], in[2] / it.Heads}
		case OpMergeHeads:
			if len(in) != 3 || it.Heads <= 0 || in[0]%it.Heads != 0 {
				return nil, fmt.Errorf("engine: %s input %v not mergeable from %d heads", it.Name, in, it.Heads)
			}
			natural = []int{in[0] / it.Heads, in[1], in[2] * it.Heads}
		case OpEmbed:
			if len(in) != 4 || it.Pos == nil || len(it.Pos.Shape) != 2 {
				return nil, fmt.Errorf("engine: %s input %v / pos table malformed", it.Name, in)
			}
			tTok, d := it.Pos.Shape[0], it.Pos.Shape[1]
			if in[1] != d || in[2]*in[3]+1 != tTok {
				return nil, fmt.Errorf("engine: %s feature map %v incompatible with pos table %v", it.Name, in, it.Pos.Shape)
			}
			natural = []int{in[0], tTok, d}
		case OpSliceCls:
			if len(in) != 3 {
				return nil, fmt.Errorf("engine: %s input rank %d, want [N,T,D]", it.Name, len(in))
			}
			natural = []int{in[0], in[2]}
		default:
			return nil, fmt.Errorf("engine: unknown op kind %q", it.Kind)
		}
		// Fused epilogues are only defined for the kinds whose kernels
		// apply them; anything else (e.g. a corrupt checkpoint attaching
		// one to avgpool) must be rejected, not silently ignored.
		if it.FusedRescale != nil && it.Kind != OpConv && it.Kind != OpLinear {
			return nil, fmt.Errorf("engine: %s (%s) cannot carry a fused rescale", it.Name, it.Kind)
		}
		if it.FusedAdd {
			if it.Kind != OpConv && it.Kind != OpLinear && it.Kind != OpRescale {
				return nil, fmt.Errorf("engine: %s (%s) cannot carry a fused add", it.Name, it.Kind)
			}
			if len(it.In) < 2 {
				return nil, fmt.Errorf("engine: %s fused add missing branch operand", it.Name)
			}
			br := shapes[it.AddOperand()]
			if tensor.Numel(br) != tensor.Numel(natural) {
				return nil, fmt.Errorf("engine: %s fused-add branch %v vs output %v", it.Name, br, natural)
			}
		}
		if it.FlattenOut {
			natural = []int{natural[0], tensor.Numel(natural) / natural[0]}
		}
		shapes[it.Out] = natural
	}
	if shapes[p.Output] == nil {
		return nil, fmt.Errorf("engine: output buffer %d never written", p.Output)
	}
	return shapes, nil
}

// WeightTensors returns the instruction weight tensors keyed by the same
// names fuse.IntModel.IntTensors uses (Name + ".conv.weight" /
// ".linear.weight"), so a checkpoint's tensor section can be shared
// between the interpreter and the engine.
func (p *Program) WeightTensors() map[string]*tensor.IntTensor {
	out := map[string]*tensor.IntTensor{}
	for i := range p.Instrs {
		it := &p.Instrs[i]
		switch it.Kind {
		case OpConv, OpLinear:
			out[it.weightName()] = it.W
		case OpEmbed:
			out[it.weightName()] = it.Pos
		}
	}
	return out
}

// weightName is the checkpoint name of the instruction's code tensor
// (weights, or an embed's positional codes), "" for kinds without one.
func (it *Instr) weightName() string {
	switch it.Kind {
	case OpConv:
		return it.Name + ".conv.weight"
	case OpLinear:
		return it.Name + ".linear.weight"
	case OpEmbed:
		return it.Name + ".poscls"
	}
	return ""
}
