package engine

// Microkernel benchmarks that locate the sparse-vs-dense break-even
// points the dispatch heuristics encode: at what skip fraction does each
// sparse inner loop beat the dense SWAR kernel it displaces?

import (
	"fmt"
	"testing"
)

func benchWeights(o, k int, sparsity float64) []int64 {
	return sparseWeights(o, k, sparsity, 99)
}

func benchPanel32(m, colW int) []int32 {
	p := make([]int32, m*colW)
	s := uint64(1)
	for i := range p {
		s = s*6364136223846793005 + 1442695040888963407
		p[i] = int32(s>>33%255) - 127
	}
	return p
}

func benchPanelBytes(m, colW int) []uint8 {
	p := make([]uint8, m*colW)
	s := uint64(1)
	for i := range p {
		s = s*6364136223846793005 + 1442695040888963407
		p[i] = uint8(s >> 33 % 256)
	}
	return p
}

func BenchmarkSparseKernels(b *testing.B) {
	const o, k, m = 64, 576, 64
	np := (o + panelW - 1) / panelW
	acc := make([]int32, o*m)
	panel32 := benchPanel32(m, k)
	panelB := benchPanelBytes(m, k)
	for _, s := range []float64{0.5, 0.7, 0.85} {
		w := benchWeights(o, k, s)
		sk := buildPanelSkip(w, o, k)
		wp32 := packPanels[int32](w, o, k)
		wps := packPanelsSwar(w, o, k)
		name := fmt.Sprintf("s%.0f", s*100)
		b.Run("dense-swar/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanelsSwar(acc, panelB, wps, m, k, o, np, m, 1)
			}
		})
		b.Run("dense-i32/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanels(acc, panel32, wp32, m, k, o, np)
			}
		})
		b.Run("pair-swar/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanelsSwarSparse(acc, panelB, wps, sk, m, k, o, np, m, 1)
			}
		})
		b.Run("csr-i32/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanelsCSR(acc, panel32, sk, m, k, o)
			}
		})
	}
	// Column-structured sparsity: every channel shares the same live
	// positions, so the pair live lists collapse to the per-channel lists
	// (liveMacs == csrMacs) and the dual-lane kernel runs no single-lane
	// entries — the pair-skipping SWAR kernel's best case.
	for _, s := range []float64{0.5, 0.7, 0.85} {
		w := make([]int64, o*k)
		live := int(float64(k) * (1 - s))
		for oc := 0; oc < o; oc++ {
			for t := 0; t < live; t++ {
				j := (t*661 + 13) % k
				if t%2 == 0 {
					w[oc*k+j] = 95
				} else {
					w[oc*k+j] = -95
				}
			}
		}
		sk := buildPanelSkip(w, o, k)
		wps := packPanelsSwar(w, o, k)
		name := fmt.Sprintf("s%.0f", s*100)
		b.Run("pair-swar-shared/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanelsSwarSparse(acc, panelB, wps, sk, m, k, o, np, m, 1)
			}
		})
		b.Run("csr-shared/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanelsCSR(acc, panel32, sk, m, k, o)
			}
		})
	}
	for _, n := range []int{1, 2} {
		w := nmWeights(o, k, n, 99)
		nm := buildNMPack(w, o, k, n)
		sk := buildPanelSkip(w, o, k)
		b.Run(fmt.Sprintf("nm-i32/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanelsNM(acc, panel32, nm, m, k, o)
			}
		})
		b.Run(fmt.Sprintf("nm-csr/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPanelsCSR(acc, panel32, sk, m, k, o)
			}
		})
	}
}
