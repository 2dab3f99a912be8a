package engine

// Oracle test for the conv gathers: every address the geometry's border
// rule computes is checked bit for bit against buildIndexMap, a per-site
// table of source offsets, on random geometries the loader admits.

import (
	"math/rand/v2"
	"testing"

	"torch2chip/internal/tensor"
)

// buildIndexMap enumerates, for every output site and every im2col
// column (ch, ky, kx order), the source offset within one sample's
// data, or -1 for a padded tap.
func buildIndexMap(g convGeom) []int32 {
	idx := make([]int32, 0, g.oh*g.ow*g.c*g.kH*g.kW)
	for oy := 0; oy < g.oh; oy++ {
		for ox := 0; ox < g.ow; ox++ {
			for ch := 0; ch < g.c; ch++ {
				for ky := 0; ky < g.kH; ky++ {
					iy := oy*g.stride - g.pad + ky
					for kx := 0; kx < g.kW; kx++ {
						ix := ox*g.stride - g.pad + kx
						id := int32(-1)
						if iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
							id = int32(ch*g.h*g.w + iy*g.w + ix)
						}
						idx = append(idx, id)
					}
				}
			}
		}
	}
	return idx
}

// randGeom draws a conv geometry that InferShapes admits: c 1–5, h and w
// 1–12, kH 1–5 and kW 1, 3 or 1–5, stride 1–3, padding 0 to
// max(kH, kW)+1.
func randGeom(r *rand.Rand) convGeom {
	for {
		c, h, w := 1+r.IntN(5), 1+r.IntN(12), 1+r.IntN(12)
		kH, kW := 1+r.IntN(5), []int{1, 3, 1 + r.IntN(5)}[r.IntN(3)]
		p := tensor.ConvParams{Stride: 1 + r.IntN(3), Padding: r.IntN(max(kH, kW) + 2)}
		in := []int{1, c, h, w}
		prog := &Program{NumBufs: 2, Instrs: []Instr{{Kind: OpConv, In: []int{0}, Out: 1, W: tensor.NewInt(1, c, kH, kW), P: p}}}
		if _, err := prog.InferShapes(in); err == nil {
			return newConvGeom(in, p, kH, kW)
		}
	}
}

// garbage is what the panels hold before a gather.
const garbage = 0x5a

// TestGatherMatchesIndexMap: on random admitted geometries — including
// kH ≠ kW, the 1×1 and kW = 3 fast paths, stride larger than the kernel
// and padding at or past the kernel — the int32 and int64 panel gathers
// of every input dtype and the SWAR byte gather read exactly the taps the index map names, for every site tile
// of three tile sizes, into garbage-filled panels; and the grouped
// conv's loops over its zero-padded slab sum exactly those taps at every
// site.
func TestGatherMatchesIndexMap(t *testing.T) {
	r := rand.New(rand.NewPCG(48, 1))
	dts := []tensor.DType{tensor.I8, tensor.U8, tensor.I16, tensor.U16, tensor.I32, tensor.I64}
	for n := 0; n < 300; n++ {
		g := randGeom(r)
		idx := buildIndexMap(g)
		spatial := g.oh * g.ow
		for _, dt := range dts {
			lo, hi := dt.Range()
			lo, hi = max(lo, -1<<40), min(hi, 1<<40)
			x := randTyped(r, dt, lo, hi, g.c, g.h, g.w)
			for _, tm := range []int{1, 1 + r.IntN(spatial), spatial} {
				switch dt {
				case tensor.I8:
					checkGathers[int8](t, &g, idx, x, tm)
				case tensor.U8:
					checkGathers[uint8](t, &g, idx, x, tm)
				case tensor.I16:
					checkGathers[int16](t, &g, idx, x, tm)
				case tensor.U16:
					checkGathers[uint16](t, &g, idx, x, tm)
				case tensor.I32:
					checkGathers[int32](t, &g, idx, x, tm)
				default:
					checkGathers[int64](t, &g, idx, x, tm)
				}
			}
		}
		checkGroupedSites[int32](t, r, &g, idx)
		checkGroupedSites[int64](t, r, &g, idx)
	}
}

// checkGathers runs the panel gathers over every tile of tm sites; the
// byte gather only for the 8-bit dtypes the SWAR path binds.
func checkGathers[A tensor.Elem](t *testing.T, g *convGeom, idx []int32, x *tensor.IntTensor, tm int) {
	t.Helper()
	xs := typedData[A](x)
	checkPanel[A, int32](t, g, idx, xs, tm)
	checkPanel[A, int64](t, g, idx, xs, tm)
	if x.DType != tensor.I8 && x.DType != tensor.U8 {
		return
	}
	lo, _ := x.DType.Range()
	ba := -lo
	colW := g.c * g.kH * g.kW
	panel := make([]uint8, tm*colW)
	for s0 := 0; s0 < g.oh*g.ow; s0 += tm {
		m := min(tm, g.oh*g.ow-s0)
		for i := range panel {
			panel[i] = garbage
		}
		gatherPanelBytes(panel, xs, g, ba, s0, m)
		for i := 0; i < m; i++ {
			for j, id := range idx[(s0+i)*colW : (s0+i+1)*colW] {
				want := uint8(ba)
				if id >= 0 {
					want = uint8(int64(xs[id]) + ba)
				}
				if got := panel[i*colW+j]; got != want {
					t.Fatalf("%+v %s: byte gather site %d col %d = %d, want %d", *g, x.DType, s0+i, j, got, want)
				}
			}
		}
	}
}

// checkPanel runs gatherPanel into C over every tile of tm sites.
func checkPanel[A tensor.Elem, C accum](t *testing.T, g *convGeom, idx []int32, xs []A, tm int) {
	t.Helper()
	colW := g.c * g.kH * g.kW
	panel := make([]C, tm*colW)
	for s0 := 0; s0 < g.oh*g.ow; s0 += tm {
		m := min(tm, g.oh*g.ow-s0)
		for i := range panel {
			panel[i] = garbage
		}
		gatherPanel(panel, xs, g, s0, m)
		for j, id := range idx[s0*colW : (s0+m)*colW] {
			var want C
			if id >= 0 {
				want = C(xs[id])
			}
			if panel[j] != want {
				t.Fatalf("%+v: %T→%T panel site %d col %d = %d, want %d", *g, xs[0], want, s0+j/colW, j%colW, panel[j], want)
			}
		}
	}
}

// checkGroupedSites widens one group of g.c channels into a
// garbage-filled padded slab and runs the grouped conv's loops over it —
// the tap-offset loop always, the 3×3 row kernel where it binds — into
// a garbage-filled accumulator plane.
func checkGroupedSites[C accum](t *testing.T, r *rand.Rand, g *convGeom, idx []int32) {
	t.Helper()
	st := newGconvPack[C](*g, g.c)
	colW := g.c * g.kH * g.kW
	xs, wv := make([]int32, g.c*g.h*g.w), make([]C, colW)
	for i := range xs {
		xs[i] = int32(r.IntN(511) - 255)
	}
	for i := range wv {
		wv[i] = C(r.IntN(255) - 127)
	}
	xw, acc := make([]C, g.c*st.hp*st.wp), make([]C, g.oh*g.ow)
	for i := range xw {
		xw[i] = garbage
	}
	padSlab(xw, xs, g.c, g.h, g.w, g.pad)
	check := func(name string, loop func(acc, xw, wv []C)) {
		for i := range acc {
			acc[i] = garbage
		}
		loop(acc, xw, wv)
		for s, got := range acc {
			var want C
			for j, id := range idx[s*colW : (s+1)*colW] {
				if id >= 0 {
					want += C(xs[id]) * wv[j]
				}
			}
			if got != want {
				t.Fatalf("%+v: grouped %s loop[%T] site %d = %d, want %d", *g, name, want, s, got, want)
			}
		}
	}
	check("tap-offset", st.rowsTaps)
	if st.dw3 {
		check("3x3", st.rows3x3)
	}
}
