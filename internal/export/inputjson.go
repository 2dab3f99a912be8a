package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"torch2chip/internal/tensor"
)

// inputBufs pools the buffers ReadInputJSON reads request bodies into.
var inputBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledInput caps the buffers returned to inputBufs, so one large
// upload is not retained for the life of the process.
const maxPooledInput = 4 << 20

// InputTensor is a float tensor payload file: one serving request for
// the t2c serve subcommand (shape [C,H,W] or [1,C,H,W]).
type InputTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// WriteInputJSON serializes a float tensor as a serving input file.
func WriteInputJSON(w io.Writer, shape []int, data []float32) error {
	return json.NewEncoder(w).Encode(InputTensor{Shape: shape, Data: data})
}

// ReadInputJSON parses a serving input file.
//
// The body is read once into a pooled buffer, and bodies in the
// canonical form {"shape":[ints],"data":[numbers]} are decoded by a
// one-pass scanner straight into a pre-sized Data slice. Any other body
// — case-variant or unknown keys, escapes, null, duplicate keys, bad or
// out-of-range numbers, a read error — is decoded from the same bytes by
// encoding/json, which is therefore the only source of errors: every
// body is accepted or rejected exactly as encoding/json would, with the
// same values and the same error strings.
func ReadInputJSON(r io.Reader) (*InputTensor, error) {
	buf := inputBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledInput {
			inputBufs.Put(buf)
		}
	}()
	_, rerr := buf.ReadFrom(r)
	var t *InputTensor
	if rerr == nil {
		t = scanInputJSON(buf.Bytes())
	}
	if t == nil {
		// Hand the decoder the bytes read and then the read error, so it
		// sees exactly the stream it would have read from r itself.
		var src io.Reader = bytes.NewReader(buf.Bytes())
		if rerr != nil {
			src = io.MultiReader(src, errReader{rerr})
		}
		t = new(InputTensor)
		if err := json.NewDecoder(src).Decode(t); err != nil {
			return nil, err
		}
	}
	// Stop as soon as the running product passes len(Data): the product
	// then never overflows, so a huge shape cannot wrap to a small count.
	n := 1
	for _, s := range t.Shape {
		if s <= 0 {
			return nil, fmt.Errorf("export: bad input shape %v", t.Shape)
		}
		if n > len(t.Data)/s {
			return nil, fmt.Errorf("export: input shape %v does not match %d values", t.Shape, len(t.Data))
		}
		n *= s
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("export: input shape %v does not match %d values", t.Shape, len(t.Data))
	}
	return t, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Samples splits a (possibly batched) input payload into per-sample
// tensors of the given sample shape. Accepted layouts are exactly
// sample (one tensor) and [N, sample...] (a batch); anything else —
// including a transposed layout with a matching element count — is
// rejected so it cannot be silently misinterpreted.
//
// The tensors are views, not copies: each one's Data is its sample's
// window of t.Data, capped at the window's end, so the samples share t's
// storage and a caller that writes to one must copy it first.
func (t *InputTensor) Samples(sample []int) ([]*tensor.Tensor, error) {
	sh := t.Shape
	n := 1
	switch {
	case slices.Equal(sh, sample):
	case len(sh) == len(sample)+1 && slices.Equal(sh[1:], sample):
		n = sh[0]
	default:
		return nil, fmt.Errorf("export: input shape %v, want %v or [N,%v]", sh, sample, sample)
	}
	k := len(t.Data) / n
	shape := append([]int{1}, sample...)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.FromSlice(t.Data[i*k:(i+1)*k:(i+1)*k], shape...)
	}
	return out, nil
}

// scanInputJSON decodes the canonical form of a serving input:
// {"shape":[ints],"data":[numbers]}, each key exactly once and in either
// order, with JSON whitespace anywhere. Numbers are checked against the
// RFC 8259 grammar and converted by the calls encoding/json makes, so an
// accepted body decodes bit-identically. It returns nil on any byte it
// does not accept; like json.Decoder.Decode, it ignores what follows the
// closing brace.
func scanInputJSON(b []byte) *InputTensor {
	s := inputScanner{b: b}
	t := new(InputTensor)
	if !s.skip('{') {
		return nil
	}
	for i := range 2 {
		if i > 0 && !s.skip(',') {
			return nil
		}
		key, ok := s.key()
		if !ok || !s.skip(':') {
			return nil
		}
		switch {
		case string(key) == "shape" && t.Shape == nil:
			t.Shape, ok = s.ints()
		case string(key) == "data" && t.Data == nil:
			t.Data, ok = s.floats(capHint(t.Shape, len(b)-s.i))
		default:
			return nil
		}
		if !ok {
			return nil
		}
	}
	if !s.skip('}') {
		return nil
	}
	return t
}

// capHint sizes Data when the shape came first: the shape's element
// count, but never more than half the bytes left, since each value takes
// at least a digit and a separator. A hostile shape therefore cannot
// allocate more than the body already holds.
func capHint(shape []int, left int) int {
	if shape == nil {
		return 0
	}
	limit, n := left/2, 1
	for _, d := range shape {
		if d <= 0 || n > limit/d {
			return limit
		}
		n *= d
	}
	return n
}

type inputScanner struct {
	b []byte
	i int
}

// skip consumes whitespace and then c, reporting whether c was there.
func (s *inputScanner) skip(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *inputScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// key consumes a quoted object key with no escapes.
func (s *inputScanner) key() ([]byte, bool) {
	if !s.skip('"') {
		return nil, false
	}
	j := bytes.IndexByte(s.b[s.i:], '"')
	if j < 0 || bytes.IndexByte(s.b[s.i:s.i+j], '\\') >= 0 {
		return nil, false
	}
	k := s.b[s.i : s.i+j]
	s.i += j + 1
	return k, true
}

// number consumes one RFC 8259 number and returns its bytes; isInt
// reports that it has no fraction or exponent.
func (s *inputScanner) number() (num []byte, isInt, ok bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i < 0 {
		return nil, false, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return nil, false, false
		}
		isInt = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return nil, false, false
		}
		isInt = false
	}
	num, s.i = b[s.i:i], i
	return num, isInt, true
}

// digits returns the end of the run of decimal digits at b[i:], or -1
// if there is none.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// open consumes an array's '[' and reports whether an element follows;
// next consumes the ',' or ']' after an element and reports whether
// another follows. Both leave the scanner at the element's first byte.
func (s *inputScanner) open() (more, ok bool) {
	if !s.skip('[') {
		return false, false
	}
	if s.skip(']') {
		return false, true
	}
	s.space()
	return true, true
}

func (s *inputScanner) next() (more, ok bool) {
	if s.skip(']') {
		return false, true
	}
	if !s.skip(',') {
		return false, false
	}
	s.space()
	return true, true
}

// ints consumes the shape array with strconv.ParseInt, as encoding/json
// does for an int field. Like floats, it returns a non-nil slice on
// success, which is how scanInputJSON spots a duplicate key.
func (s *inputScanner) ints() ([]int, bool) {
	var dims [8]int
	v := dims[:0]
	more, ok := s.open()
	for ; more; more, ok = s.next() {
		num, isInt, valid := s.number()
		if !valid || !isInt {
			return nil, false
		}
		n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
		if err != nil {
			return nil, false
		}
		v = append(v, int(n))
	}
	return append(make([]int, 0, len(v)), v...), ok
}

// floats consumes the data array into a slice of capacity c. Each
// number converts to the float32 strconv.ParseFloat at 32 bits returns,
// as encoding/json does for a float32 field: by exactFloat32 when it can
// decide, by ParseFloat itself otherwise.
func (s *inputScanner) floats(c int) ([]float32, bool) {
	v := make([]float32, 0, c)
	more, ok := s.open()
	for ; more; more, ok = s.next() {
		num, _, valid := s.number()
		if !valid {
			return nil, false
		}
		f, exact := exactFloat32(num)
		if !exact {
			f64, err := strconv.ParseFloat(string(num), 32)
			if err != nil {
				return nil, false
			}
			f = float32(f64)
		}
		v = append(v, f)
	}
	return v, ok
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat32 converts a number that inputScanner.number accepted to
// the float32 strconv.ParseFloat(num, 32) returns, and reports false
// when it cannot decide; the caller then asks ParseFloat. It is
// Clinger's fast path taken at float64 precision: with at most 15
// significant digits m and a power of ten e in [-22, 22], both m and
// 10^|e| are exact float64 values, so q = m·10^e (or m/10^-e) is the
// correctly rounded float64 of the decimal x, and lies in [1e-22, 1e37),
// inside float32's normal range.
//
// float32(q) is then the correctly rounded float32 of x unless q is a
// float32 rounding midpoint. Every such midpoint has 25 significant bits
// and so is itself a float64; one lying strictly between x and q would
// be closer to x than q, which contradicts q's correct rounding. So x
// and q round to the same float32 unless q is a midpoint — its low 29
// float64 mantissa bits are exactly 1<<28 — and then the result is left
// to ParseFloat.
func exactFloat32(num []byte) (float32, bool) {
	i, neg := 0, num[0] == '-'
	if neg {
		i++
	}
	// Read the digits into m and the fraction's length into -e, the
	// power of ten. Leading zeros leave m at 0, so m < 1e15 holds exactly
	// when it has at most 15 significant digits. 19 digits cannot wrap a
	// uint64; longer runs are left to ParseFloat.
	var m uint64
	start, e := i, 0
	for ; i < len(num) && num[i]-'0' <= 9; i++ {
		m = m*10 + uint64(num[i]-'0')
	}
	nd := i - start
	if i < len(num) && num[i] == '.' {
		i++
		start = i
		for ; i < len(num) && num[i]-'0' <= 9; i++ {
			m = m*10 + uint64(num[i]-'0')
		}
		nd += i - start
		e = start - i
	}
	if nd > 19 {
		return 0, false
	}
	if i < len(num) { // exponent
		i++
		eneg := num[i] == '-'
		if num[i] == '-' || num[i] == '+' {
			i++
		}
		// Past 1e4 the exponent is out of range already; stopping there
		// keeps x from overflowing.
		x := 0
		for ; i < len(num) && x < 1e4; i++ {
			x = x*10 + int(num[i]-'0')
		}
		if eneg {
			x = -x
		}
		e += x
	}
	if m == 0 {
		e = 0 // ±0 at any exponent
	}
	if m >= 1e15 || e < -22 || e > 22 {
		return 0, false
	}
	q := float64(m)
	if e < 0 {
		q /= pow10[-e]
	} else {
		q *= pow10[e]
	}
	if math.Float64bits(q)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	if neg {
		q = -q
	}
	return float32(q), true
}
