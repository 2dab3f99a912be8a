package export

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"torch2chip/internal/tensor"
)

func randCodes(g *tensor.RNG, n, bits int) *tensor.IntTensor {
	t := tensor.NewInt(n)
	span := int64(1) << bits
	for i := range t.Data {
		t.Data[i] = g.Int63()%span - span/2
	}
	return t
}

func TestHexRoundTrip(t *testing.T) {
	for _, bits := range []int{2, 4, 8, 12, 16, 32} {
		g := tensor.NewRNG(int64(bits))
		codes := randCodes(g, 100, bits)
		var buf bytes.Buffer
		if err := WriteHex(&buf, codes, bits); err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		back, err := ReadHex(&buf, bits)
		if err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		for i := range codes.Data {
			if back[i] != codes.Data[i] {
				t.Fatalf("%d bits: [%d] %d != %d", bits, i, back[i], codes.Data[i])
			}
		}
	}
}

func TestHexTokenWidth(t *testing.T) {
	// 4-bit codes must be exactly one hex digit; 8-bit two digits.
	codes := tensor.IntFromSlice([]int64{-1, 0, 7, -8}, 4)
	var buf bytes.Buffer
	if err := WriteHex(&buf, codes, 4); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(buf.String())
	want := []string{"f", "0", "7", "8"}
	for i, l := range lines {
		if l != want[i] {
			t.Fatalf("line %d = %q, want %q", i, l, want[i])
		}
	}
}

func TestHexRejectsOutOfRange(t *testing.T) {
	codes := tensor.IntFromSlice([]int64{200}, 1)
	var buf bytes.Buffer
	if err := WriteHex(&buf, codes, 8); err == nil {
		t.Fatal("200 does not fit signed 8-bit; expected error")
	}
}

func TestHexSkipsComments(t *testing.T) {
	in := "// memory init\n0a\n\nff\n"
	vals, err := ReadHex(strings.NewReader(in), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 10 || vals[1] != -1 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestBinRoundTrip(t *testing.T) {
	g := tensor.NewRNG(3)
	codes := randCodes(g, 64, 6)
	var buf bytes.Buffer
	if err := WriteBin(&buf, codes, 6); err != nil {
		t.Fatal(err)
	}
	// Every token is exactly 6 characters of 0/1.
	for _, line := range strings.Fields(buf.String()) {
		if len(line) != 6 || strings.Trim(line, "01") != "" {
			t.Fatalf("bad binary token %q", line)
		}
	}
	back, err := ReadBin(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes.Data {
		if back[i] != codes.Data[i] {
			t.Fatalf("[%d] %d != %d", i, back[i], codes.Data[i])
		}
	}
}

func TestRawRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		for _, bits := range []int{8, 16, 32} {
			codes := randCodes(g, 33, bits)
			var buf bytes.Buffer
			if err := WriteRaw(&buf, codes, bits); err != nil {
				return false
			}
			if buf.Len() != 33*byteWidth(bits) {
				return false
			}
			back, err := ReadRaw(&buf, bits, 33)
			if err != nil {
				return false
			}
			for i := range codes.Data {
				if back[i] != codes.Data[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := tensor.NewRNG(5)
	tensors := map[string]*tensor.IntTensor{
		"conv.weight":  randCodes(g, 72, 4).Reshape(8, 9),
		"scaler.scale": randCodes(g, 8, 16),
	}
	ck := NewCheckpoint(tensors, map[string]int{"conv.weight": 4, "scaler.scale": 16})
	var buf bytes.Buffer
	if err := ck.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w, err := back.Tensor("conv.weight")
	if err != nil {
		t.Fatal(err)
	}
	if w.Shape[0] != 8 || w.Shape[1] != 9 {
		t.Fatalf("shape %v", w.Shape)
	}
	for i := range w.Data {
		if w.Data[i] != tensors["conv.weight"].Data[i] {
			t.Fatalf("[%d] mismatch", i)
		}
	}
	if back.Tensors["conv.weight"].Width != 4 {
		t.Fatalf("width %d", back.Tensors["conv.weight"].Width)
	}
	if _, err := back.Tensor("missing"); err == nil {
		t.Fatal("expected error for missing tensor")
	}
	names := back.Names()
	if len(names) != 2 || names[0] != "conv.weight" {
		t.Fatalf("names %v", names)
	}
}

func TestCheckpointRejectsUnknownFormat(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"format":"other","tensors":{}}`)); err == nil {
		t.Fatal("expected format error")
	}
}

func TestReadInputJSONValidatesShape(t *testing.T) {
	in, err := ReadInputJSON(strings.NewReader(`{"shape":[2,3],"data":[1,2,3,4,5,6]}`))
	if err != nil || len(in.Data) != 6 {
		t.Fatalf("valid input: %v, %+v", err, in)
	}
	for _, body := range []string{
		`{"shape":[2,3],"data":[1,2,3,4,5]}`,
		`{"shape":[0,3],"data":[]}`,
		`{"shape":[-1,3],"data":[1,2,3]}`,
		// 2^58 × 3 × 8 × 8 wraps int64 to 0, which would match the empty data.
		`{"shape":[288230376151711744,3,8,8],"data":[]}`,
		`{"shape":[9223372036854775807,9223372036854775807],"data":[1]}`,
	} {
		if _, err := ReadInputJSON(strings.NewReader(body)); err == nil {
			t.Fatalf("%s: want a shape error", body)
		}
	}
}

func TestQIntPackDensity(t *testing.T) {
	g := tensor.NewRNG(6)
	codes := randCodes(g, 16, 4)
	packed, err := QIntPack(codes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != 8 { // 16 × 4 bits = 64 bits = 8 bytes
		t.Fatalf("packed size %d, want 8", len(packed))
	}
	back, err := QIntUnpack(packed, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes.Data {
		if back[i] != codes.Data[i] {
			t.Fatalf("[%d] %d != %d", i, back[i], codes.Data[i])
		}
	}
}

func TestQIntPackOddWidthProperty(t *testing.T) {
	// Odd widths like 3 or 5 bits must pack/unpack exactly too.
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		for _, bits := range []int{2, 3, 5, 7} {
			codes := randCodes(g, 21, bits)
			packed, err := QIntPack(codes, bits)
			if err != nil {
				return false
			}
			back, err := QIntUnpack(packed, bits, 21)
			if err != nil {
				return false
			}
			for i := range codes.Data {
				if back[i] != codes.Data[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestQIntUnpackShortBuffer(t *testing.T) {
	if _, err := QIntUnpack([]byte{0}, 8, 4); err == nil {
		t.Fatal("expected short-buffer error")
	}
}

func TestTwosComplementEdges(t *testing.T) {
	for _, tc := range []struct {
		v     int64
		width int
		want  uint64
	}{
		{-1, 4, 0xf},
		{-8, 4, 0x8},
		{7, 4, 0x7},
		{-128, 8, 0x80},
		{127, 8, 0x7f},
	} {
		u, err := twosComplement(tc.v, tc.width)
		if err != nil {
			t.Fatal(err)
		}
		if u != tc.want {
			t.Fatalf("tc(%d,%d) = %x, want %x", tc.v, tc.width, u, tc.want)
		}
		if back := fromTwosComplement(u, tc.width); back != tc.v {
			t.Fatalf("round trip %d → %d", tc.v, back)
		}
	}
}
