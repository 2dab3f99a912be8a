// Package intmath provides the integer-only compute kernels used by the
// inference and deploy paths: int64-accumulating GEMM and convolution,
// the MulQuant fixed-point rescaling module (INT16 scale and bias with a
// user-defined integer/fraction split), and LUT-based non-linear function
// approximation (Softmax, GELU) for integer-only transformers.
package intmath

import (
	"fmt"
	"math"
	"math/bits"

	"torch2chip/internal/tensor"
)

// MatMulInt computes C[m,n] = A[m,k] × B[k,n] over integer tensors with
// int64 accumulation.
func MatMulInt(a, b *tensor.IntTensor) *tensor.IntTensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("intmath: MatMulInt shapes %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := tensor.NewInt(m, n)
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		ai := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j := range ci {
				ci[j] += av * bp[j]
			}
		}
	}
	return c
}

// MatMulIntT computes A[m,k] × Bᵀ for B[n,k].
func MatMulIntT(a, b *tensor.IntTensor) *tensor.IntTensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("intmath: MatMulIntT shapes %v × %vᵀ", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := tensor.NewInt(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s int64
			for p := range ai {
				s += ai[p] * bj[p]
			}
			ci[j] = s
		}
	}
	return c
}

// Conv2dInt computes a grouped integer convolution of x [N,C,H,W] with
// weights w [O,C/g,kH,kW], accumulating in int64. An optional zero point
// zx is subtracted from x on the fly (asymmetric activations).
func Conv2dInt(x, w *tensor.IntTensor, zx int64, p tensor.ConvParams) *tensor.IntTensor {
	if p.Stride <= 0 {
		p.Stride = 1
	}
	if p.Groups <= 0 {
		p.Groups = 1
	}
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	o, cg, kH, kW := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := p.ConvOutSize(h, kH), p.ConvOutSize(wd, kW)
	out := tensor.NewInt(n, o, oh, ow)
	og := o / p.Groups
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < o; oc++ {
			g := oc / og
			wBase := oc * cg * kH * kW
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc int64
					for ch := 0; ch < cg; ch++ {
						inCh := g*cg + ch
						xBase := (ni*c + inCh) * h * wd
						for ky := 0; ky < kH; ky++ {
							iy := oy*p.Stride - p.Padding + ky
							if iy < 0 || iy >= h {
								// Padded region contributes (0 - zx)·w.
								if zx != 0 {
									for kx := 0; kx < kW; kx++ {
										acc += -zx * w.Data[wBase+(ch*kH+ky)*kW+kx]
									}
								}
								continue
							}
							for kx := 0; kx < kW; kx++ {
								ix := ox*p.Stride - p.Padding + kx
								var xv int64
								if ix >= 0 && ix < wd {
									xv = x.Data[xBase+iy*wd+ix]
								}
								acc += (xv - zx) * w.Data[wBase+(ch*kH+ky)*kW+kx]
							}
						}
					}
					out.Data[((ni*o+oc)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// RoundDiv divides num by den (den > 0) rounding half away from zero —
// the shared integer-division rounding every deploy stage uses, so the
// interpreter and the engine kernels agree bit for bit. Like Requantize,
// it divides |num| and restores the sign with the mask num>>63 rather
// than a branch.
func RoundDiv(num, den int64) int64 {
	s := num >> 63
	return ((((num ^ s) - s + den/2) / den) ^ s) - s
}

// ISqrt returns floor(sqrt(n)) computed with a pure-integer Newton
// iteration (seeded from the bit length, so convergence takes a handful
// of steps). Hardware-friendly and exactly reproducible: the integer
// LayerNorm normalization divides by this root, so every engine kernel
// lands on the same codes as the interpreter.
func ISqrt(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if n < 4 {
		return 1
	}
	// Seed x0 = 2^ceil(bits/2) ≥ sqrt(n); Newton from above is monotone
	// decreasing, so the loop exits at floor(sqrt(n)).
	x := int64(1) << ((bits.Len64(uint64(n)) + 1) / 2)
	for {
		y := (x + n/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}

// RoundClip rounds v to the nearest integer and clips to [lo, hi].
func RoundClip(v float64, lo, hi int64) int64 {
	c := int64(math.Round(v))
	if c < lo {
		return lo
	}
	if c > hi {
		return hi
	}
	return c
}
