package engine_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/tensor"
)

// checkpointJSON encodes a program spec over the given tensor table as
// checkpoint JSON.
func checkpointJSON(t testing.TB, tensors map[string]*tensor.IntTensor, spec *export.ProgramSpec) []byte {
	t.Helper()
	ck := export.NewCheckpoint(tensors, nil)
	ck.Program = spec
	var buf bytes.Buffer
	if err := ck.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFromCheckpoint feeds arbitrary checkpoint JSON to the loader. It
// is seeded with the small CNN at spec v4, v3, v2 (fused, no dtypes)
// and v1 (unfused, no dtypes) and the ViT at v4. FromCheckpoint and a
// batch-1 PlanBuffers must never panic, and every program that loads
// must survive its own Spec and WeightTensors: the reload has the same
// Fingerprint and plans the same storage dtypes. A program that plans
// is then bound by a batch-1 executor under FastKernels — which folds
// every scaler into its epilogue and proves its rounding bound, whatever
// the scales, biases and zero points — and executed once on zero codes;
// neither may panic. Programs whose arenas or modeled work are too large
// for a fuzz iteration stop before the bind or the execute.
func FuzzFromCheckpoint(f *testing.F) {
	g := tensor.NewRNG(61)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	im, fused := compile(f, smallCNN(g), calib)
	unfused, err := engine.Lower(im)
	if err != nil {
		f.Fatal(err)
	}
	for v := 4; v >= 1; v-- {
		p := fused
		if v == 1 {
			p = unfused
		}
		spec := p.Spec()
		spec.Version, spec.InShape = v, []int{3, 8, 8}
		if v < 3 {
			spec.BufDTypes = nil
		}
		f.Add(checkpointJSON(f, p.WeightTensors(), spec))
	}
	_, vit := compileViT(f, 3, 1)
	f.Add(checkpointJSON(f, vit.WeightTensors(), vit.Spec()))
	// Scalers no compile emits: output zero points at the int64 extremes
	// and an input zero point whose correction overflows, which the
	// bind's fold must take to its Requantize fallback.
	for _, z := range []int64{math.MaxInt64, math.MinInt64, 1 << 50} {
		spec := fused.Spec()
		spec.InShape = []int{3, 8, 8}
		for i := range spec.Instrs {
			is := &spec.Instrs[i]
			if is.Scaler != nil {
				is.Scaler.OutZero = z
			}
			if is.FusedRescale != nil {
				is.FusedRescale.OutZero = -z
			}
			if is.Kind == string(engine.OpConv) || is.Kind == string(engine.OpLinear) {
				is.InZero = z >> 2
			}
		}
		f.Add(checkpointJSON(f, fused.WeightTensors(), spec))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := export.ReadJSON(bytes.NewReader(body))
		if err != nil {
			return
		}
		p, err := engine.FromCheckpoint(ck)
		if err != nil {
			return
		}
		in := append([]int{1}, p.InShape...)
		plan, planErr := p.PlanBuffers(in)
		q, err := reloadProgram(t, p.WeightTensors(), p.Spec())
		if err != nil {
			t.Fatalf("a loaded program does not reload from its own spec: %v", err)
		}
		if q.Fingerprint() != p.Fingerprint() {
			t.Fatalf("reload fingerprint %016x, loaded %016x", q.Fingerprint(), p.Fingerprint())
		}
		if planErr != nil {
			return
		}
		plan2, err := q.PlanBuffers(in)
		if err != nil {
			t.Fatalf("reload does not plan: %v", err)
		}
		if !slices.Equal(plan2.DTypes, plan.DTypes) {
			t.Fatalf("reload plans dtypes %v, loaded %v", plan2.DTypes, plan.DTypes)
		}
		if plan.ArenaBytes > 1<<22 {
			return
		}
		ex, err := engine.NewExecutor(p, in, engine.WithKernels(engine.FastKernels()), engine.WithMaxParallel(1))
		if err != nil {
			return
		}
		var modeled float64
		for _, c := range ex.Explain() {
			modeled += c.ModeledNs
		}
		if modeled > 2e7 {
			return
		}
		ex.ExecuteCodes(tensor.NewInt(in...), nil)
	})
}
