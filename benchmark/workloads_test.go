package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// decodeBody parses a predict body the way any JSON client would.
func decodeBody(t *testing.T, body []byte) (shape []int, data []float32) {
	t.Helper()
	var in struct {
		Shape []int     `json:"shape"`
		Data  []float32 `json:"data"`
	}
	if err := json.Unmarshal(body, &in); err != nil {
		t.Fatalf("body is not JSON: %v", err)
	}
	return in.Shape, in.Data
}

func TestBodyPatcher(t *testing.T) {
	const per = 3 * 32 * 32
	for _, batch := range []int{1, 8} {
		tm := newBodyTemplate(7, batch)
		if !bytes.Equal(tm.base, newBodyTemplate(7, batch).base) {
			t.Fatal("the same seed gave another template")
		}
		if bytes.Equal(tm.base, newBodyTemplate(8, batch).base) {
			t.Fatal("another seed gave the same template")
		}
		a, b := tm.body(0x1234), tm.body(0xfff0)
		if len(a) != len(tm.base) || len(b) != len(tm.base) {
			t.Fatalf("patching changed the length: %d and %d, base %d", len(a), len(b), len(tm.base))
		}
		if !bytes.Equal(a, tm.body(0x1234)) {
			t.Fatal("the same key gave another body")
		}
		shape, data := decodeBody(t, a)
		want := []int{3, 32, 32}
		if batch > 1 {
			want = []int{batch, 3, 32, 32}
		}
		if !slices.Equal(shape, want) || len(data) != batch*per {
			t.Fatalf("batch %d: shape %v with %d values", batch, shape, len(data))
		}
		for s := 0; s < batch; s++ {
			key := 0x1234 + s
			for i := 0; i < keyDigits; i++ {
				d := key >> (4 * (keyDigits - 1 - i)) & 15
				if got := data[s*per+i]; got != float32(d)/16 {
					t.Errorf("batch %d sample %d value %d = %g, want digit %d/16", batch, s, i, got, d)
				}
			}
			// Beyond the key every sample is the same input.
			if !slices.Equal(data[s*per+keyDigits:(s+1)*per], data[keyDigits:per]) {
				t.Errorf("batch %d: sample %d differs from sample 0 beyond its key", batch, s)
			}
		}
		_, other := decodeBody(t, b)
		if slices.Equal(data[:keyDigits], other[:keyDigits]) || !slices.Equal(data[keyDigits:per], other[keyDigits:per]) {
			t.Error("two keys must differ in the key values and nowhere else")
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	a, b := poissonOffsets(240, 80), poissonOffsets(240, 80)
	if !slices.Equal(a, b) {
		t.Fatal("the schedule does not replay")
	}
	if !slices.IsSorted(a) || a[0] <= 0 {
		t.Fatal("offsets must increase from the start of the round")
	}
	if got := a[len(a)-1].Seconds(); math.Abs(got-3) > 0.6 {
		t.Errorf("240 arrivals at 80/s end after %.2f s, want about 3", got)
	}
}

func TestZipfTraffic(t *testing.T) {
	draw := func() []int {
		next := zipfRanks(1.1, 4096)
		out := make([]int, 5000)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	ranks := draw()
	if !slices.Equal(ranks, draw()) {
		t.Fatal("the ranks do not replay")
	}
	if slices.Min(ranks) != 0 || slices.Max(ranks) > 4095 {
		t.Fatalf("ranks span %d..%d, want 0..4095", slices.Min(ranks), slices.Max(ranks))
	}
	keys := rankKeys(3, 4096)
	if !slices.Equal(keys, rankKeys(3, 4096)) || slices.Equal(keys, rankKeys(4, 4096)) {
		t.Fatal("which key has which rank must follow the seed, and only the seed")
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for i, k := range sorted {
		if k != i {
			t.Fatalf("rank keys are not a permutation of the universe: %d at %d", k, i)
		}
	}
}

func TestLRUTail(t *testing.T) {
	got := lruTail([]int{1, 2, 3, 1, 4, 2, 5}, 3)
	if want := []int{4, 2, 5}; !slices.Equal(got, want) {
		t.Errorf("lruTail = %v, want %v", got, want)
	}
	if got := lruTail([]int{1, 1, 2}, 8); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("lruTail under capacity = %v, want [1 2]", got)
	}
}
