package engine_test

import (
	"testing"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/tensor"
)

// firstInstr returns the first instruction of p matching ok.
func firstInstr(t *testing.T, p *engine.Program, ok func(*engine.Instr) bool) *engine.Instr {
	t.Helper()
	for i := range p.Instrs {
		if ok(&p.Instrs[i]) {
			return &p.Instrs[i]
		}
	}
	t.Fatal("no matching instruction")
	return nil
}

func ofKind(k engine.OpKind) func(*engine.Instr) bool {
	return func(it *engine.Instr) bool { return it.Kind == k }
}

// TestFingerprintCoversTheProgram: every single change to what a
// program computes changes its fingerprint — a weight or positional
// code, each scaler field, the input quantizer, the output scale, a
// lookup-table entry, and each instruction attribute — while a weight
// stored at another width with the same codes does not, and the fused
// and unfused builds of one model differ. Each variant is a fresh
// reload of the base checkpoint with one field changed.
func TestFingerprintCoversTheProgram(t *testing.T) {
	g := tensor.NewRNG(5)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	im, cnn := compile(t, branchyCNN(g), calib)
	_, vit := compileViT(t, 3, 1)
	load := func(p *engine.Program) func() *engine.Program {
		return func() *engine.Program {
			q, err := reloadProgram(t, p.WeightTensors(), p.Spec())
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
	}
	freshCNN, freshViT := load(cnn), load(vit)
	if freshCNN().Fingerprint() != cnn.Fingerprint() || freshViT().Fingerprint() != vit.Fingerprint() {
		t.Fatal("a reload changed the fingerprint")
	}
	conv := ofKind(engine.OpConv)
	fusedAdd := func(it *engine.Instr) bool { return it.FusedAdd }
	cases := []struct {
		name   string
		fresh  func() *engine.Program
		mutate func(t *testing.T, p *engine.Program)
	}{
		{"weight-code", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).W.Data[0]++ }},
		{"scale-fx", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).Scaler.ScaleFx[0]++ }},
		{"bias-fx", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).Scaler.BiasFx[0]++ }},
		{"frac-bits", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).Scaler.FracBits++ }},
		{"out-zero", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).Scaler.OutZero++ }},
		{"in-quant-scale", freshCNN, func(t *testing.T, p *engine.Program) { p.InQuant.Scale[0] *= 1.5 }},
		{"in-quant-zero", freshCNN, func(t *testing.T, p *engine.Program) { p.InQuant.Zero[0]++ }},
		{"out-scale", freshCNN, func(t *testing.T, p *engine.Program) { p.OutScale *= 1.5 }},
		{"stride", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).P.Stride++ }},
		{"padding", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).P.Padding++ }},
		{"in-zero", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, conv).InZero++ }},
		{"shift", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, fusedAdd).Shift++ }},
		{"clamp-hi", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, fusedAdd).ClampHi-- }},
		{"fused-add", freshCNN, func(t *testing.T, p *engine.Program) { firstInstr(t, p, fusedAdd).FusedAdd = false }},
		{"positional-code", freshViT, func(t *testing.T, p *engine.Program) { firstInstr(t, p, ofKind(engine.OpEmbed)).Pos.Data[0]++ }},
		{"gelu-entry", freshViT, func(t *testing.T, p *engine.Program) { firstInstr(t, p, ofKind(engine.OpGelu)).Gelu.Table[0]++ }},
		{"softmax-entry", freshViT, func(t *testing.T, p *engine.Program) { firstInstr(t, p, ofKind(engine.OpSoftmax)).SM.Exp.Table[0]++ }},
		{"transpose-b", freshViT, func(t *testing.T, p *engine.Program) {
			it := firstInstr(t, p, ofKind(engine.OpMatMul))
			it.TransposeB = !it.TransposeB
		}},
	}
	for _, tc := range cases {
		p := tc.fresh()
		base := p.Fingerprint()
		tc.mutate(t, p)
		if p.Fingerprint() == base {
			t.Errorf("%s: changing it left the fingerprint at %016x", tc.name, base)
		}
	}

	// The same codes stored at int8 hash as they do at int64.
	p := freshCNN()
	base := p.Fingerprint()
	it := firstInstr(t, p, conv)
	narrow := tensor.NewTyped(tensor.I8, it.W.Shape...)
	for i, v := range it.W.Data {
		narrow.Put(i, v)
	}
	it.W = narrow
	if p.Fingerprint() != base {
		t.Error("storing a weight at int8 changed the fingerprint")
	}

	unfused, err := engine.Lower(im)
	if err != nil {
		t.Fatal(err)
	}
	if unfused.Fingerprint() == cnn.Fingerprint() {
		t.Error("the fused and unfused programs share a fingerprint")
	}
}
