package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// oracleReadInputJSON is the decoder the scanner must reproduce:
// encoding/json followed by ReadInputJSON's shape checks.
func oracleReadInputJSON(r io.Reader) (*InputTensor, error) {
	var t InputTensor
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
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
	return &t, nil
}

// diffDecode decodes body with ReadInputJSON and the oracle and reports
// the first difference: accept against reject, error text, shape, or the
// bits of any value.
func diffDecode(body []byte) error {
	got, gerr := ReadInputJSON(bytes.NewReader(body))
	want, werr := oracleReadInputJSON(bytes.NewReader(body))
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			return fmt.Errorf("error %v, oracle error %v", gerr, werr)
		}
		return nil
	}
	if !reflect.DeepEqual(got.Shape, want.Shape) {
		return fmt.Errorf("shape %#v, oracle %#v", got.Shape, want.Shape)
	}
	if len(got.Data) != len(want.Data) {
		return fmt.Errorf("%d values, oracle %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return fmt.Errorf("value %d = %v, oracle %v", i, got.Data[i], want.Data[i])
		}
	}
	return nil
}

var benchSample = []int{3, 32, 32}

// benchBody renders a predict body in the repository benchmark's format:
// shape [batch,3,32,32] (bare [3,32,32] at batch 1), uniform values in
// [0,1) written with strconv.AppendFloat(v, 'g', -1, 32).
func benchBody(batch int) []byte {
	b := []byte(`{"shape":[`)
	if batch > 1 {
		b = strconv.AppendInt(b, int64(batch), 10)
		b = append(b, ',')
	}
	b = append(b, `3,32,32],"data":[`...)
	r := rand.New(rand.NewSource(int64(batch)))
	for i := range batch * 3 * 32 * 32 {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(r.Float32()), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// writtenBody is WriteInputJSON's output: a trailing newline and
// exponent forms such as 1e-07.
func writtenBody(t testing.TB) []byte {
	var buf bytes.Buffer
	data := []float32{1e-7, -2.5e-12, 0, 1, 3.4028235e38, 1.4e-45, -0.75}
	if err := WriteInputJSON(&buf, []int{7}, data); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spacedBody is a canonical body with JSON whitespace between every
// token, shape after data.
const spacedBody = " \r\n{ \t\"data\" :\n[ 1 ,\t2.5e-3 , -0\r, 4 , 5E+1 , 6 ] ,\n \"shape\"\t: [ 2 , 3 ] } \n"

// inputSeeds are the bodies the fuzz corpus and the equivalence test
// start from: the canonical forms and every way off them.
func inputSeeds(t testing.TB) [][]byte {
	seeds := [][]byte{benchBody(1), benchBody(8), writtenBody(t), []byte(spacedBody)}
	for _, s := range []string{
		// shape-product overflow
		`{"shape":[288230376151711744,3,8,8],"data":[]}`,
		`{"shape":[9223372036854775807,9223372036854775807],"data":[1]}`,
		// keys off the canonical form
		`{"Shape":[2],"data":[1,2]}`,
		`{"shape":[2],"data":[1,2],"extra":true}`,
		`{"shape":null,"data":[1]}`,
		`{"shape":[1],"data":null}`,
		`{"shape":[2],"shape":[1],"data":[1]}`,
		`{"shape":[1],"data":[1],"data":[2]}`,
		`{"data":[1,2],"shape":[2]}`,
		`{"data":[1]}`,
		`{"shape":[],"data":[1]}`,
		`{"shape":[1],"data":[]}`,
		// numbers
		`{"shape":[1],"data":[-0]}`,
		`{"shape":[1],"data":[1E+2]}`,
		`{"shape":[1],"data":[1e-46]}`,
		`{"shape":[1],"data":[3.4028235e38]}`,
		`{"shape":[1],"data":[3.4028236e38]}`,
		`{"shape":[1],"data":[1e39]}`,
		`{"shape":[1],"data":[01]}`,
		`{"shape":[1],"data":[1.]}`,
		`{"shape":[1],"data":[.5]}`,
		`{"shape":[1],"data":[+1]}`,
		`{"shape":[1],"data":[NaN]}`,
		`{"shape":[1],"data":[-]}`,
		`{"shape":[1],"data":["1"]}`,
		`{"shape":[1.0],"data":[1]}`,
		`{"shape":[1e0],"data":[1]}`,
		`{"shape":[-0],"data":[1]}`,
		`{"shape":[99999999999999999999],"data":[1]}`,
		// framing
		`{"shape":[1],"data":[1]}trailing garbage`,
		"\ufeff" + `{"shape":[1],"data":[1]}`,
		`{"shape":[1],"data":[1,]}`,
		`{"shape":[1] "data":[1]}`,
		`{"shape":[1],"data":[1]`,
		`[1]`,
		`{`,
		``,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func FuzzReadInputJSON(f *testing.F) {
	for _, s := range inputSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := diffDecode(body); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	})
}

// TestReadInputJSONMatchesEncodingJSON: the seed bodies, and 100 000
// random float32 values in every form strconv and encoding/json write,
// decode exactly as encoding/json decodes them.
func TestReadInputJSONMatchesEncodingJSON(t *testing.T) {
	for _, s := range inputSeeds(t) {
		if err := diffDecode(s); err != nil {
			t.Errorf("%.80q: %v", s, err)
		}
	}
	r := rand.New(rand.NewSource(41))
	const total, perBody = 100_000, 1000
	vals := make([]float32, perBody)
	for done := 0; done < total; done += perBody {
		for i := range vals {
			bits := r.Uint32()
			switch {
			case i%16 == 0:
				bits &= 1 << 31 // ±0
			case i%4 == 0:
				bits &^= 0xff << 23 // subnormal
			case bits>>23&0xff == 0xff:
				bits ^= 1 << 30 // finite
			}
			vals[i] = math.Float32frombits(bits)
		}
		for _, format := range []byte{'g', 'e', 'f'} {
			b := []byte(`{"shape":[1000],"data":[`)
			for i, v := range vals {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendFloat(b, float64(v), format, -1, 32)
			}
			if err := diffDecode(append(b, "]}"...)); err != nil {
				t.Fatalf("format %c: %v", format, err)
			}
		}
		body, err := json.Marshal(InputTensor{Shape: []int{perBody}, Data: vals})
		if err != nil {
			t.Fatal(err)
		}
		if err := diffDecode(body); err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
	}
}

// TestScanInputJSONFastPath: the bodies servers see decode on the
// scanner, without falling back to encoding/json.
func TestScanInputJSONFastPath(t *testing.T) {
	for name, body := range map[string][]byte{
		"bench-b1": benchBody(1),
		"bench-b8": benchBody(8),
		"written":  writtenBody(t),
		"spaced":   []byte(spacedBody),
	} {
		got := scanInputJSON(body)
		if got == nil {
			t.Errorf("%s: scanner fell back", name)
			continue
		}
		want, err := oracleReadInputJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scanner decoded %v, oracle %v", name, got.Shape, want.Shape)
		}
	}
	// The numbers servers see convert on exactFloat32, without falling
	// back to strconv, except WriteInputJSON's float32 extremes, which
	// lie outside the fast path's range by design.
	for name, body := range map[string][]byte{
		"bench-b1": benchBody(1),
		"bench-b8": benchBody(8),
		"written":  writtenBody(t),
	} {
		for _, num := range dataNumbers(t, body) {
			extreme := string(num) == "3.4028235e+38" || string(num) == "1e-45"
			if _, fast := exactFloat32(num); fast == extreme {
				t.Errorf("%s: exactFloat32(%s) took the fast path: %v", name, num, fast)
			}
		}
	}
}

// dataNumbers returns the bytes of each number in body's data array.
func dataNumbers(t *testing.T, body []byte) [][]byte {
	s := inputScanner{b: body, i: bytes.Index(body, []byte(`"data"`)) + len(`"data"`)}
	if !s.skip(':') {
		t.Fatalf("%.40q: no data array", body)
	}
	var nums [][]byte
	more, ok := s.open()
	for ; more; more, ok = s.next() {
		num, _, valid := s.number()
		if !valid {
			t.Fatalf("%.40q: bad number at byte %d", body, s.i)
		}
		nums = append(nums, num)
	}
	if !ok {
		t.Fatalf("%.40q: data array does not close", body)
	}
	return nums
}

// exactVectors are named cases of the float32 fast path: whether it
// decides each number (fast) or leaves it to strconv.
var exactVectors = []struct {
	num  string
	fast bool
}{
	{"16777217", false}, // a float32 midpoint: strconv rounds it to 16777216
	{"1e22", true},      // the largest exact power of ten
	{"1e23", false},
	{"1234567890123456", false}, // 16 significant digits
	{"-0", true},
	{"0e400", true},
	{"-0.0e5", true},
	{"4.5727237e-05", true},
}

// diffExact converts num with exactFloat32 and reports whether the fast
// path decided it, and how it differs from strconv.ParseFloat(num, 32)
// in any bit, sign of zero included, if it did.
func diffExact(num string) (fast bool, err error) {
	got, fast := exactFloat32([]byte(num))
	if !fast {
		return false, nil
	}
	want, perr := strconv.ParseFloat(num, 32)
	if perr != nil {
		return true, fmt.Errorf("%s: fast path gave %v, ParseFloat failed: %v", num, got, perr)
	}
	if math.Float32bits(got) != math.Float32bits(float32(want)) {
		return true, fmt.Errorf("%s: fast path gave %v (%#08x), ParseFloat %v (%#08x)",
			num, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
	}
	return true, nil
}

// isNumber reports whether all of s is one number inputScanner accepts.
func isNumber(s string) bool {
	sc := inputScanner{b: []byte(s)}
	_, _, ok := sc.number()
	return ok && sc.i == len(s)
}

// randomNumber renders 1–17 random digits with a random decimal point,
// sign and exponent in [-30, 30], in the RFC 8259 grammar.
func randomNumber(r *rand.Rand) string {
	d := make([]byte, 1+r.Intn(17))
	for i := range d {
		d[i] = byte('0' + r.Intn(10))
	}
	point := r.Intn(len(d) + 1)
	var b []byte
	if r.Intn(2) == 0 {
		b = append(b, '-')
	}
	if whole := bytes.TrimLeft(d[:point], "0"); len(whole) > 0 {
		b = append(b, whole...)
	} else {
		b = append(b, '0')
	}
	if point < len(d) {
		b = append(append(b, '.'), d[point:]...)
	}
	if r.Intn(2) == 0 {
		b = append(b, "eE"[r.Intn(2)])
		x := r.Intn(61) - 30
		if x < 0 {
			b = append(b, '-')
			x = -x
		} else if r.Intn(2) == 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// TestExactFloat32MatchesParseFloat: wherever the fast path decides a
// number, it decides it as strconv.ParseFloat(num, 32) does, bit for
// bit. It checks the named vectors, random decimal strings, and float32
// rounding midpoints with their float64 neighbours at every precision a
// writer is likely to print.
func TestExactFloat32MatchesParseFloat(t *testing.T) {
	for _, v := range exactVectors {
		fast, err := diffExact(v.num)
		if err != nil {
			t.Error(err)
		}
		if fast != v.fast {
			t.Errorf("%s: fast path %v, want %v", v.num, fast, v.fast)
		}
	}
	r := rand.New(rand.NewSource(42))
	check := func(num string) bool {
		if !isNumber(num) {
			t.Fatalf("%q is not a JSON number", num)
		}
		fast, err := diffExact(num)
		if err != nil {
			t.Fatal(err)
		}
		return fast
	}
	const strs = 300_000
	fast := 0
	for range strs {
		if check(randomNumber(r)) {
			fast++
		}
	}
	if fast < strs/4 {
		t.Errorf("fast path decided %d of %d random numbers, want at least a quarter", fast, strs)
	}
	const mids = 30_000
	fast = 0
	for range mids {
		// A positive normal float32 below the largest, its successor, and
		// the midpoint between them, which float64 holds exactly.
		f := math.Float32frombits(uint32(1+r.Intn(253))<<23 | r.Uint32()&(1<<23-1))
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
		if r.Intn(2) == 0 {
			mid = -mid
		}
		for _, v := range []float64{mid, math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1))} {
			for _, prec := range []int{-1, 8, 9, 12, 15, 16, 17} {
				if check(strconv.FormatFloat(v, 'g', prec, 64)) {
					fast++
				}
			}
		}
	}
	if fast == 0 {
		t.Error("fast path decided none of the midpoint strings")
	}
}

func FuzzExactFloat32(f *testing.F) {
	for _, v := range exactVectors {
		f.Add(v.num)
	}
	f.Fuzz(func(t *testing.T, num string) {
		if !isNumber(num) {
			return
		}
		if _, err := diffExact(num); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadInputJSONSteadyStateAllocs: with the body buffer pooled, a
// shape-first body of n samples allocates Data once at its exact size,
// and decode plus Samples stays within a few allocations per sample.
func TestReadInputJSONSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{1, 8} {
		body := benchBody(n)
		decode := func() *InputTensor {
			in, err := ReadInputJSON(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := in.Samples(benchSample); err != nil {
				t.Fatal(err)
			}
			return in
		}
		if in := decode(); cap(in.Data) != len(in.Data) {
			t.Errorf("n=%d: cap(Data) = %d, len %d", n, cap(in.Data), len(in.Data))
		}
		// sync.Pool may drop a Put (the race detector drops one in four
		// on purpose) or lose its contents to a GC, so a run can start
		// without a warm buffer: count the best of several runs.
		best := math.Inf(1)
		for range 20 {
			best = min(best, testing.AllocsPerRun(1, func() { decode() }))
		}
		if limit := float64(3*n + 8); best > limit {
			t.Errorf("n=%d: %v allocations per decode, want ≤ %v", n, best, limit)
		}
	}
}

func TestSamplesAreViews(t *testing.T) {
	in, err := ReadInputJSON(strings.NewReader(`{"shape":[2,3],"data":[1,2,3,4,5,6]}`))
	if err != nil {
		t.Fatal(err)
	}
	xs, err := in.Samples([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if !reflect.DeepEqual(x.Shape, []int{1, 3}) || len(x.Data) != 3 || cap(x.Data) != 3 || &x.Data[0] != &in.Data[3*i] {
			t.Fatalf("sample %d: shape %v, len %d cap %d, not a capped view of Data", i, x.Shape, len(x.Data), cap(x.Data))
		}
	}
}

func BenchmarkReadInputJSON(b *testing.B) {
	for _, n := range []int{1, 8} {
		body := benchBody(n)
		b.Run(fmt.Sprintf("b%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				in, err := ReadInputJSON(bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := in.Samples(benchSample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
