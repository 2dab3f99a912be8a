// Package export writes integer model parameters in the output formats of
// Figure 5: hexadecimal text for Verilog/SystemVerilog $readmemh, binary
// text for $readmemb, packed little-endian binary, and a JSON integer
// checkpoint. Every format has a matching reader so round trips are
// testable, and all encoders work from the IntTensor map produced by
// fuse.IntModel.
package export

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"torch2chip/internal/tensor"
)

// twosComplement encodes v into width bits (two's complement).
func twosComplement(v int64, width int) (uint64, error) {
	lo := -(int64(1) << (width - 1))
	hi := int64(1)<<(width-1) - 1
	if width >= 64 {
		return uint64(v), nil
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("export: value %d does not fit %d bits", v, width)
	}
	mask := uint64(1)<<width - 1
	return uint64(v) & mask, nil
}

// fromTwosComplement decodes a width-bit two's complement code.
func fromTwosComplement(u uint64, width int) int64 {
	if width < 64 && u&(1<<(width-1)) != 0 {
		return int64(u) - (1 << width)
	}
	return int64(u)
}

// WriteHex emits one hexadecimal token per element, the $readmemh layout:
// each line holds a two's-complement code padded to ceil(width/4) digits.
func WriteHex(w io.Writer, t *tensor.IntTensor, widthBits int) error {
	bw := bufio.NewWriter(w)
	digits := (widthBits + 3) / 4
	for _, v := range t.Data {
		u, err := twosComplement(v, widthBits)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%0*x\n", digits, u); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadHex parses a $readmemh stream into codes of the given width.
func ReadHex(r io.Reader, widthBits int) ([]int64, error) {
	var out []int64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		u, err := strconv.ParseUint(line, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("export: bad hex token %q: %w", line, err)
		}
		out = append(out, fromTwosComplement(u, widthBits))
	}
	return out, sc.Err()
}

// WriteBin emits one binary token per element ($readmemb layout).
func WriteBin(w io.Writer, t *tensor.IntTensor, widthBits int) error {
	bw := bufio.NewWriter(w)
	for _, v := range t.Data {
		u, err := twosComplement(v, widthBits)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%0*b\n", widthBits, u); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBin parses a $readmemb stream.
func ReadBin(r io.Reader, widthBits int) ([]int64, error) {
	var out []int64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		u, err := strconv.ParseUint(line, 2, 64)
		if err != nil {
			return nil, fmt.Errorf("export: bad binary token %q: %w", line, err)
		}
		out = append(out, fromTwosComplement(u, widthBits))
	}
	return out, sc.Err()
}

// WriteRaw packs codes little-endian at the smallest byte width that holds
// widthBits (1, 2, 4, or 8 bytes per element).
func WriteRaw(w io.Writer, t *tensor.IntTensor, widthBits int) error {
	bw := bufio.NewWriter(w)
	nb := byteWidth(widthBits)
	var buf [8]byte
	for _, v := range t.Data {
		u, err := twosComplement(v, widthBits)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], u)
		if _, err := bw.Write(buf[:nb]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRaw unpacks a little-endian raw stream of n codes.
func ReadRaw(r io.Reader, widthBits, n int) ([]int64, error) {
	nb := byteWidth(widthBits)
	out := make([]int64, 0, n)
	buf := make([]byte, nb)
	var full [8]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		copy(full[:], buf)
		for j := nb; j < 8; j++ {
			full[j] = 0
		}
		u := binary.LittleEndian.Uint64(full[:])
		mask := uint64(1)<<(8*nb) - 1
		out = append(out, fromTwosComplement(u&widthMask(widthBits, mask), widthBits))
	}
	return out, nil
}

func widthMask(widthBits int, byteMask uint64) uint64 {
	if widthBits >= 64 {
		return byteMask
	}
	m := uint64(1)<<widthBits - 1
	if m < byteMask {
		return m
	}
	return byteMask
}

func byteWidth(widthBits int) int {
	switch {
	case widthBits <= 8:
		return 1
	case widthBits <= 16:
		return 2
	case widthBits <= 32:
		return 4
	default:
		return 8
	}
}

// Checkpoint is the JSON integer model file: tensor name → shape, width,
// and codes. It plays the role of the paper's "integer-only PyTorch model
// file": the model architecture stays vanilla, only integer parameters and
// scaler codes are stored.
type Checkpoint struct {
	Format  string                `json:"format"`
	Tensors map[string]CkptTensor `json:"tensors"`
	// Program is the optional compiled inference graph (engine.Program
	// lowered to a plain-data spec). Instruction weights reference
	// entries of Tensors by name, so the parameter payload is stored
	// once and shared between the interpreter and the engine.
	Program *ProgramSpec `json:"program,omitempty"`
}

// ProgramSpec is the serialized graph IR: a topo-ordered instruction
// list over numbered buffers plus the float↔code boundary parameters.
// OptLevel records the optimization pass the program was compiled with,
// so a reloaded checkpoint reconstructs the exact fused artifact.
type ProgramSpec struct {
	Version  int `json:"version"`
	OptLevel int `json:"opt_level,omitempty"`
	// InShape is the single-sample input shape (no batch dimension,
	// e.g. [3,32,32]). Optional for backward compatibility: older
	// checkpoints omit it and servers must be told the shape explicitly.
	InShape []int `json:"in_shape,omitempty"`
	// BufDTypes (spec version ≥ 3) records each buffer's narrow storage
	// dtype ("i8", "u8", "i16", "u16", "i32", "i64") for readers of the
	// file. The engine derives storage from the program at every
	// version and only checks that no recorded dtype is too narrow for
	// the codes its buffer holds; older checkpoints omit it.
	BufDTypes []string    `json:"buf_dtypes,omitempty"`
	InQuant   QuantSpec   `json:"in_quant"`
	OutScale  float32     `json:"out_scale"`
	OutZero   int64       `json:"out_zero"`
	NumBufs   int         `json:"num_bufs"`
	Input     int         `json:"input"`
	Output    int         `json:"output"`
	Instrs    []InstrSpec `json:"instrs"`
}

// QuantSpec serializes an activation quantizer's frozen parameters.
type QuantSpec struct {
	NBits  int       `json:"nbits"`
	Signed bool      `json:"signed"`
	Scale  []float32 `json:"scale"`
	Zero   []int64   `json:"zero"`
}

// ScalerSpec serializes a MulQuant fixed-point rescaler.
type ScalerSpec struct {
	ScaleFx   []int16 `json:"scale_fx"`
	BiasFx    []int32 `json:"bias_fx"`
	FracBits  int     `json:"frac_bits"`
	IntBits   int     `json:"int_bits"`
	OutBits   int     `json:"out_bits"`
	OutSigned bool    `json:"out_signed"`
	OutZero   int64   `json:"out_zero"`
}

// InstrSpec is one serialized instruction. Only the fields relevant to
// Kind are populated.
type InstrSpec struct {
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	In     []int  `json:"in"`
	Out    int    `json:"out"`
	Weight string `json:"weight,omitempty"` // Tensors key of the weight

	Stride  int   `json:"stride,omitempty"`
	Padding int   `json:"padding,omitempty"`
	Groups  int   `json:"groups,omitempty"`
	InZero  int64 `json:"in_zero,omitempty"`
	WBits   int   `json:"w_bits,omitempty"`

	Scaler *ScalerSpec `json:"scaler,omitempty"`

	Kernel     int `json:"kernel,omitempty"`
	PoolStride int `json:"pool_stride,omitempty"`

	Shift   int   `json:"shift,omitempty"`
	ClampLo int64 `json:"clamp_lo,omitempty"`
	ClampHi int64 `json:"clamp_hi,omitempty"`

	// Fused epilogue (spec version ≥ 2): a folded rescale stage, a folded
	// residual add (whose branch is the last In entry; Shift/Clamp fields
	// carry its parameters), and a folded flatten of the output view.
	FusedRescale *ScalerSpec `json:"fused_rescale,omitempty"`
	FusedAdd     bool        `json:"fused_add,omitempty"`
	FlattenOut   bool        `json:"flatten_out,omitempty"`

	// Transformer attributes (spec version ≥ 4). Matmul instructions
	// carry the operand zero points and transpose flag; head split/merge
	// carry Heads; layernorm carries the integer-normalization constants
	// (its Scaler field holds the γ/β fold); gelu and softmax carry their
	// lookup tables; embed references its positional/class code tensor
	// through Weight and reuses ClampLo/ClampHi.
	TransposeB bool         `json:"transpose_b,omitempty"`
	ZA         int64        `json:"za,omitempty"`
	ZB         int64        `json:"zb,omitempty"`
	Heads      int          `json:"heads,omitempty"`
	LNDim      int          `json:"ln_dim,omitempty"`
	LNK        int64        `json:"ln_k,omitempty"`
	LNFrac     int          `json:"ln_frac,omitempty"`
	LNEps      int64        `json:"ln_eps,omitempty"`
	Gelu       *LUTSpec     `json:"gelu,omitempty"`
	Softmax    *SoftmaxSpec `json:"softmax,omitempty"`
}

// LUTSpec serializes an integer lookup table (input domain plus the
// table codes; the output range lives in the instruction's clamp
// fields and is validated against every entry at load time).
type LUTSpec struct {
	InMin    int64   `json:"in_min"`
	Table    []int64 `json:"table"`
	OutScale float32 `json:"out_scale,omitempty"`
}

// SoftmaxSpec serializes the integer softmax: the UQ1.15 exponential
// table over max-subtracted logit codes and the probability code width.
type SoftmaxSpec struct {
	ExpInMin int64   `json:"exp_in_min"`
	ExpTable []int64 `json:"exp_table"`
	OutBits  int     `json:"out_bits"`
}

// CkptTensor is one named integer tensor.
type CkptTensor struct {
	Shape []int   `json:"shape"`
	Width int     `json:"width_bits"`
	Data  []int64 `json:"data"`
}

// NewCheckpoint builds a checkpoint from named tensors with per-tensor
// widths (weights use the weight precision; scaler entries use 16/32).
func NewCheckpoint(tensors map[string]*tensor.IntTensor, widths map[string]int) *Checkpoint {
	ck := &Checkpoint{Format: "torch2chip-int-v1", Tensors: map[string]CkptTensor{}}
	for name, t := range tensors {
		w := 32
		if ww, ok := widths[name]; ok {
			w = ww
		}
		ck.Tensors[name] = CkptTensor{Shape: append([]int(nil), t.Shape...), Width: w, Data: append([]int64(nil), t.Data...)}
	}
	return ck
}

// WriteJSON serializes the checkpoint.
func (c *Checkpoint) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// ReadJSON parses a checkpoint.
func ReadJSON(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, err
	}
	if c.Format != "torch2chip-int-v1" {
		return nil, fmt.Errorf("export: unknown checkpoint format %q", c.Format)
	}
	return &c, nil
}

// Tensor reconstructs a named tensor from the checkpoint. A negative
// dimension, or data whose length is not the shape's element count, is
// an error.
func (c *Checkpoint) Tensor(name string) (*tensor.IntTensor, error) {
	ct, ok := c.Tensors[name]
	if !ok {
		return nil, fmt.Errorf("export: tensor %q not in checkpoint", name)
	}
	// Stop once the running product passes len(Data), so a huge shape
	// cannot overflow to a matching count.
	n := 1
	for _, s := range ct.Shape {
		if s < 0 || (s > 0 && n > len(ct.Data)/s) {
			return nil, fmt.Errorf("export: tensor %q shape %v does not match %d values", name, ct.Shape, len(ct.Data))
		}
		n *= s
	}
	if n != len(ct.Data) {
		return nil, fmt.Errorf("export: tensor %q shape %v does not match %d values", name, ct.Shape, len(ct.Data))
	}
	return tensor.IntFromSlice(append([]int64(nil), ct.Data...), ct.Shape...), nil
}

// Names returns the sorted tensor names.
func (c *Checkpoint) Names() []string {
	names := make([]string, 0, len(c.Tensors))
	for n := range c.Tensors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// QIntPack packs sub-byte codes densely (e.g. eight 4-bit codes in four
// bytes), the storage layout behind the "Model Size (MB)" accounting and
// the closest analogue of torch.qint packed tensors.
func QIntPack(t *tensor.IntTensor, widthBits int) ([]byte, error) {
	if widthBits < 1 || widthBits > 32 {
		return nil, fmt.Errorf("export: pack width %d unsupported", widthBits)
	}
	nbits := len(t.Data) * widthBits
	out := make([]byte, (nbits+7)/8)
	bit := 0
	for _, v := range t.Data {
		u, err := twosComplement(v, widthBits)
		if err != nil {
			return nil, err
		}
		for b := 0; b < widthBits; b++ {
			if u&(1<<b) != 0 {
				out[bit/8] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	return out, nil
}

// QIntUnpack reverses QIntPack for n codes.
func QIntUnpack(data []byte, widthBits, n int) ([]int64, error) {
	need := (n*widthBits + 7) / 8
	if len(data) < need {
		return nil, fmt.Errorf("export: packed data too short: %d < %d", len(data), need)
	}
	out := make([]int64, n)
	bit := 0
	for i := 0; i < n; i++ {
		var u uint64
		for b := 0; b < widthBits; b++ {
			if data[bit/8]&(1<<(bit%8)) != 0 {
				u |= 1 << b
			}
			bit++
		}
		out[i] = fromTwosComplement(u, widthBits)
	}
	return out, nil
}
