package engine

// White-box sparsity tests: every sparse microkernel must produce the
// accumulators of its dense counterpart bit-for-bit (skipped positions
// hold exactly-zero weights — identity elements of integer addition),
// the strategy selection must pick skip/N:M/dense by effective-MAC
// fraction, and the sparse SWAR lane bound must admit pruned weights the
// dense full-K bound rejects.

import (
	"testing"

	"torch2chip/internal/intmath"
	"torch2chip/internal/quant"
	"torch2chip/internal/tensor"
)

// sparseWeights builds row-major [o][k] int8-range weights with roughly
// the given zero fraction (deterministic LCG so failures reproduce).
func sparseWeights(o, k int, sparsity float64, seed uint64) []int64 {
	w := make([]int64, o*k)
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	for i := range w {
		if float64(next()%1000) < sparsity*1000 {
			continue
		}
		v := int64(next()%255) - 127
		if v == 0 {
			v = 1
		}
		w[i] = v
	}
	return w
}

// nmWeights builds [o][k] weights with exact N:M structure (n nonzeros
// per aligned group of nmM).
func nmWeights(o, k, n int, seed uint64) []int64 {
	w := make([]int64, o*k)
	s := seed
	next := func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	for oc := 0; oc < o; oc++ {
		for g := 0; g+nmM <= k; g += nmM {
			for t := 0; t < n; t++ {
				j := int(next() % nmM)
				v := int64(next()%255) - 127
				if v == 0 {
					v = 1
				}
				w[oc*k+g+j] = v // duplicate j just leaves ≤ n nonzeros
			}
		}
	}
	return w
}

// TestSparseGemmKernelsMatchDense: the pair-skipping and N:M int32
// kernels (conv-panel and linear layouts) must reproduce gemmPanels's
// accumulator tile exactly, and the pair-skipping SWAR kernel gemmPanels's
// tile over the biased bytes a' = a + ba (its contract is S' = Σ a'·w;
// the epilogue's folded bias removes ba·Σw), at several shapes including
// partial panels and odd site counts.
func TestSparseGemmKernelsMatchDense(t *testing.T) {
	shapes := []struct{ o, k, m int }{
		{4, 16, 8},
		{6, 36, 7},  // partial second panel, odd sites
		{10, 27, 5}, // k not divisible by 4 (no N:M)
		{3, 8, 9},   // single partial panel
	}
	for _, sh := range shapes {
		for _, sparsity := range []float64{0.3, 0.7, 0.95} {
			o, k, m := sh.o, sh.k, sh.m
			w := sparseWeights(o, k, sparsity, uint64(o*k)+uint64(sparsity*100))
			np := (o + panelW - 1) / panelW
			wp32 := packPanels[int32](w, o, k)
			sk := buildPanelSkip(w, o, k)

			// Random raw int8 activations as a widened panel.
			panel := make([]int32, m*k)
			s := uint64(99)
			for i := range panel {
				s = s*6364136223846793005 + 1442695040888963407
				panel[i] = int32((s>>33)%255) - 127
			}
			want := make([]int32, np*panelW*m)
			gemmPanels(want, panel, wp32, m, k, o, np)

			got := make([]int32, len(want))
			gemmPanelsCSR(got, panel, sk, m, k, o)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("o=%d k=%d m=%d s=%.2f: csr acc[%d] = %d, dense %d", o, k, m, sparsity, i, got[i], want[i])
				}
			}

			// SWAR pair-skipping kernel over the biased byte panel.
			ba := int64(128)
			bpanel := make([]uint8, m*k)
			for i, v := range panel {
				bpanel[i] = uint8(int64(v) + ba)
			}
			biased := make([]int32, m*k)
			for i, v := range bpanel {
				biased[i] = int32(v)
			}
			wantS := make([]int32, len(want))
			gemmPanels(wantS, biased, wp32, m, k, o, np)
			wps := packPanelsSwar(w, o, k)
			gotS := make([]int32, len(want))
			gemmPanelsSwarSparse(gotS, bpanel, wps, sk, m, k, o, np, m, 1)
			for i := range want {
				if gotS[i] != wantS[i] {
					t.Fatalf("o=%d k=%d m=%d s=%.2f: swar-sparse acc[%d] = %d, dense %d", o, k, m, sparsity, i, gotS[i], wantS[i])
				}
			}

			// Linear (row-major accumulator) layouts.
			xs := make([]int8, m*k)
			for i, v := range panel {
				xs[i] = int8(v)
			}
			wantRow := make([]int32, m*o)
			for pb := 0; pb < np; pb++ {
				wp := wp32[pb*k*panelW : (pb+1)*k*panelW]
				oc0 := pb * panelW
				nch := o - oc0
				if nch > panelW {
					nch = panelW
				}
				for i := 0; i < m; i++ {
					var c [panelW]int32
					for j := 0; j < k; j++ {
						av := int32(xs[i*k+j])
						for r := 0; r < panelW; r++ {
							c[r] += av * wp[j*panelW+r]
						}
					}
					storeAccRow(wantRow, i*o+oc0, nch, c[0], c[1], c[2], c[3])
				}
			}
			gotRow := make([]int32, m*o)
			linPanelsCSR(gotRow, xs, sk, 0, m, k, o)
			for i := range wantRow {
				if gotRow[i] != wantRow[i] {
					t.Fatalf("o=%d k=%d m=%d s=%.2f: lin-csr acc[%d] = %d, dense %d", o, k, m, sparsity, i, gotRow[i], wantRow[i])
				}
			}
		}
	}
}

// TestNMKernelsMatchDense validates the N:M-packed kernels at n = 1 and
// n = 2 against the dense panel GEMM.
func TestNMKernelsMatchDense(t *testing.T) {
	for _, n := range []int{1, 2} {
		for _, sh := range []struct{ o, k, m int }{{4, 16, 6}, {7, 32, 5}, {2, 8, 3}} {
			o, k, m := sh.o, sh.k, sh.m
			w := nmWeights(o, k, n, uint64(n*o*k))
			if got := detectNM(w, o, k); got == 0 || got > n {
				t.Fatalf("detectNM(%d:%d weights) = %d", n, nmM, got)
			}
			np := (o + panelW - 1) / panelW
			wp32 := packPanels[int32](w, o, k)
			nm := buildNMPack(w, o, k, n)
			panel := make([]int32, m*k)
			s := uint64(7)
			for i := range panel {
				s = s*6364136223846793005 + 1442695040888963407
				panel[i] = int32((s>>33)%255) - 127
			}
			want := make([]int32, np*panelW*m)
			gemmPanels(want, panel, wp32, m, k, o, np)
			got := make([]int32, len(want))
			gemmPanelsNM(got, panel, nm, m, k, o)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d o=%d k=%d m=%d: nm acc[%d] = %d, dense %d", n, o, k, m, i, got[i], want[i])
				}
			}
			xs := make([]int8, m*k)
			for i, v := range panel {
				xs[i] = int8(v)
			}
			wantRow := make([]int32, m*o)
			gotRow := make([]int32, m*o)
			linPanelsCSR(wantRow, xs, buildPanelSkip(w, o, k), 0, m, k, o)
			linPanelsNM(gotRow, xs, nm, 0, m, k, o)
			for i := range wantRow {
				if gotRow[i] != wantRow[i] {
					t.Fatalf("n=%d o=%d k=%d m=%d: lin-nm acc[%d] = %d, want %d", n, o, k, m, i, gotRow[i], wantRow[i])
				}
			}
		}
	}
}

// TestAnalyzeInstrStrategy checks the analysis rules: dense weights and
// grouped convs build no sparse structure, unstructured sparsity builds
// the CSR/pair lists, N:M structure builds the packed form, and
// near-dense weights (modeled CSR time above the dense panel's) are not
// worth an indexed loop.
func TestAnalyzeInstrStrategy(t *testing.T) {
	mk := func(w []int64, o, k int, groups int) *Instr {
		wt := tensor.NewInt(o, k/1, 1, 1)
		// Reshape to [o, k, 1, 1] for conv; the analysis only uses Shape[0]
		// and Numel.
		wt.Data = w
		wt.Shape = []int{o, k, 1, 1}
		return &Instr{Kind: OpConv, W: wt, P: tensor.ConvParams{Groups: groups}}
	}
	o, k := 8, 64
	dense := sparseWeights(o, k, 0, 1)
	if sp := analyzeInstr(mk(dense, o, k, 1)); sp.strategy != spDense || sp.effNum != 1 || sp.effDen != 1 {
		t.Fatalf("dense weights → %v (%d/%d)", sp.strategy, sp.effNum, sp.effDen)
	}
	sparse := sparseWeights(o, k, 0.7, 2)
	if sp := analyzeInstr(mk(sparse, o, k, 1)); sp.strategy != spSkip {
		t.Fatalf("70%% unstructured → %v, want skip", sp.strategy)
	} else if sp.effNum >= sp.effDen || sp.skip == nil {
		t.Fatalf("skip strategy eff %d/%d, skip=%v", sp.effNum, sp.effDen, sp.skip != nil)
	}
	if sp := analyzeInstr(mk(sparse, o, k, 2)); sp.strategy != spDense {
		t.Fatalf("grouped conv must stay dense, got %v", sp.strategy)
	}
	nmw := nmWeights(o, k, 2, 3)
	if sp := analyzeInstr(mk(nmw, o, k, 1)); sp.strategy != spNM || sp.effNum != 2 || sp.effDen != nmM {
		t.Fatalf("2:4 weights → %v (%d/%d), want nm 2/4", sp.strategy, sp.effNum, sp.effDen)
	}
	// 5% sparsity: pair-live fraction ≈ 1 − s² ≈ 0.998 > 7/8 → dense.
	near := sparseWeights(o, k, 0.05, 4)
	if sp := analyzeInstr(mk(near, o, k, 1)); sp.strategy != spDense {
		t.Fatalf("near-dense weights → %v, want dense", sp.strategy)
	}
	// The linear kind takes the same analysis.
	lw := tensor.NewInt(o, k)
	lw.Data = nmWeights(o, k, 1, 5)
	if sp := analyzeInstr(&Instr{Kind: OpLinear, W: lw}); sp.strategy != spNM || sp.effNum != 1 {
		t.Fatalf("1:4 linear → %v (%d/%d)", sp.strategy, sp.effNum, sp.effDen)
	}
}

// sparseLinearProgram builds a minimal one-linear program with the given
// weights; input codes are full-range int8.
func sparseLinearProgram(t *testing.T, w []int64, o, k int) *Program {
	t.Helper()
	wt := tensor.NewInt(o, k)
	wt.Data = w
	sc, err := intmath.NewMulQuant([]float32{0.001}, []float32{0}, 4, 12, 8, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Program{
		InQuant: quant.NewQBase(8, true, false),
		Instrs: []Instr{{
			Kind: OpLinear, Name: "lin", In: []int{0}, Out: 1,
			W: wt, Scaler: sc,
		}},
		NumBufs: 2, Input: 0, Output: 1,
		InShape: []int{k},
	}
}

// TestSwarSparseLegality: a linear whose full-K lane sum may overflow
// a signed 32-bit lane (K·aSpan·wAbs > 2³¹−1) must be rejected by the
// dense SWAR bound but admitted — and bound to the pair-skipping SWAR
// kernel — under the live-K bound, bit-identically to the reference
// registry. The forced-dense registry (FastKernelsWithout(CapSparse))
// must fall back to the int32 panel instead.
func TestSwarSparseLegality(t *testing.T) {
	// K chosen past the dense boundary (66311 at aSpan 255, wAbs 127) and NOT
	// divisible by 4 so no N:M structure hides the skip path; 100 live
	// positions per row keep the live-K lane sum far below the bound.
	// All channels share the same live positions (column-structured
	// sparsity), which is exactly the regime where the cost plan binds
	// the pair-skipping SWAR kernel over the channel CSR: the pair live
	// lists collapse to the per-row lists and the dual-lane multiply
	// wins.
	o, k := 4, 66562
	w := make([]int64, o*k)
	for oc := 0; oc < o; oc++ {
		for t := 0; t < 100; t++ {
			j := (t * 661) % k
			if t%2 == 0 {
				w[oc*k+j] = 127
			} else {
				w[oc*k+j] = -127
			}
		}
	}
	p := sparseLinearProgram(t, w, o, k)
	st, err := p.storage()
	if err != nil {
		t.Fatal(err)
	}
	if !st.typed[0] {
		t.Fatal("sparse linear must stay on typed storage (maxRowNnz bound)")
	}
	if st.swar[0] {
		t.Fatal("full-K lane bound must reject K=66562 at aSpan 255, wAbs 127")
	}
	if !st.swarSparse[0] {
		t.Fatal("live-K lane bound must admit ~200 live positions per pair")
	}

	g := tensor.NewRNG(31)
	codes := tensor.NewInt(2, k)
	for i := range codes.Data {
		codes.Data[i] = int64(g.Intn(255)) - 127
	}
	var want []int64
	for _, tc := range []struct {
		name string
		reg  *Registry
		path string
	}{
		{"reference", ReferenceKernels(), ""},
		{"fast-sparse", FastKernels(), "swar-sparse"},
		{"fast-dense", FastKernelsWithout(CapSparse), "i32-panel"},
	} {
		ex, err := NewExecutor(p, []int{2, k}, WithKernels(tc.reg))
		if err != nil {
			t.Fatal(err)
		}
		if tc.path != "" {
			cs := ex.KernelChoices()
			if len(cs) != 1 || cs[0].Path != tc.path {
				t.Fatalf("%s bound path %q, want %q", tc.name, cs[0].Path, tc.path)
			}
		}
		out, err := ex.ExecuteCodes(codes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = append([]int64(nil), out.Data...)
			continue
		}
		for i := range want {
			if out.Data[i] != want[i] {
				t.Fatalf("%s diverges from reference at %d: %d vs %d", tc.name, i, out.Data[i], want[i])
			}
		}
	}
}
