// Benchmark harness: one benchmark per paper table and figure (regenerating
// the rows at reduced scale and reporting accuracies as custom metrics),
// plus micro-benchmarks of the integer kernels the deploy path runs on.
// cmd/t2c-bench prints the same tables at larger scale.
package torch2chip_test

import (
	"fmt"
	"strings"
	"testing"

	"torch2chip/internal/bench"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/intmath"
	"torch2chip/internal/models"
	"torch2chip/internal/quant"
	"torch2chip/internal/tensor"
)

// metric sanitizes a label into a testing.B metric unit (no whitespace).
func metric(parts ...string) string {
	s := strings.Join(parts, "_")
	s = strings.NewReplacer(" ", "_", "(", "", ")", "", "/", "-", ":", "").Replace(s)
	return s
}

// benchScale keeps the full-table benchmarks inside a CI-sized budget.
func benchScale() bench.Scale {
	return bench.Scale{TrainN: 160, TestN: 60, Epochs: 3, Batch: 32, PTQStep: 3}
}

func BenchmarkTable1ImageNetPTQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1(benchScale())
		for _, r := range rows {
			b.ReportMetric(float64(r.Acc*100), metric(r.Method, r.WA, "acc%"))
		}
	}
}

func BenchmarkTable2CIFARZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table2(benchScale())
		for _, r := range rows {
			b.ReportMetric(float64(r.Acc*100), metric(r.Method, r.Model, r.WA, "acc%"))
		}
	}
}

func BenchmarkTable3SparseQuant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table3(benchScale())
		for _, r := range rows {
			b.ReportMetric(float64(r.Acc*100), metric(r.Method, r.WA, "acc%"))
		}
	}
}

func BenchmarkTable4SSLTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table4(benchScale())
		for _, r := range rows {
			b.ReportMetric(float64(r.Acc*100), metric(r.Method, "mean_acc%"))
		}
	}
}

func BenchmarkFig3DualPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Fig3(benchScale())
		b.ReportMetric(float64(r.TrainVsInfer), "train_vs_infer_maxdiff")
		b.ReportMetric(float64(r.TrainVsDeploy), "train_vs_deploy_maxdiff")
		b.ReportMetric(float64(r.Top1Agreement*100), "deploy_top1_agree%")
	}
}

func BenchmarkFig4ViTAttention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Fig4(benchScale())
		b.ReportMetric(float64(r.FloatAcc*100), "float_softmax_acc%")
		b.ReportMetric(float64(r.LUTAcc*100), "lut_softmax_acc%")
		b.ReportMetric(float64(r.SoftmaxMaxErr), "lut_prob_maxerr")
	}
}

func BenchmarkFig5Export(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig5(benchScale(), b.TempDir())
		for _, r := range rows {
			b.ReportMetric(float64(r.TotalSize), metric(r.Format, "bytes"))
		}
	}
}

func BenchmarkAblationFusionScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationFusion(benchScale())
		for _, r := range rows {
			b.ReportMetric(float64(r.DeployAcc*100), metric(fmt.Sprintf("%s_w%d_acc%%", r.Scheme, r.WBits)))
		}
	}
}

// --- micro-benchmarks of the deploy-path kernels ---

func BenchmarkFloatConv2d(b *testing.B) {
	g := tensor.NewRNG(1)
	x := g.Uniform(0, 1, 8, 16, 16, 16)
	w := g.Randn(0.1, 32, 16, 3, 3)
	p := tensor.ConvParams{Stride: 1, Padding: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2d(x, w, nil, p)
	}
}

func BenchmarkIntConv2d(b *testing.B) {
	g := tensor.NewRNG(2)
	x := tensor.NewInt(8, 16, 16, 16)
	w := tensor.NewInt(32, 16, 3, 3)
	for i := range x.Data {
		x.Data[i] = int64(g.Intn(255))
	}
	for i := range w.Data {
		w.Data[i] = int64(g.Intn(255)) - 127
	}
	p := tensor.ConvParams{Stride: 1, Padding: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		intmath.Conv2dInt(x, w, 0, p)
	}
}

func BenchmarkMulQuantRescale(b *testing.B) {
	g := tensor.NewRNG(3)
	scale := make([]float32, 32)
	bias := make([]float32, 32)
	for i := range scale {
		scale[i] = g.Float32()*0.01 + 0.001
		bias[i] = g.NormFloat32()
	}
	mq, err := intmath.NewMulQuant(scale, bias, 4, 12, 8, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	acc := tensor.NewInt(8, 32, 16, 16)
	for i := range acc.Data {
		acc.Data[i] = int64(g.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mq.Apply(acc, 1)
	}
}

func BenchmarkLUTSoftmax(b *testing.B) {
	g := tensor.NewRNG(4)
	ls := intmath.NewLUTSoftmax(-128, 127, 1.0/16, 8)
	x := tensor.NewInt(64, 65)
	for i := range x.Data {
		x.Data[i] = int64(g.Intn(255)) - 128
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.Apply(x)
	}
}

func BenchmarkQuantizerFakeQuant(b *testing.B) {
	g := tensor.NewRNG(5)
	q := quant.NewMinMax(8, true, false)
	x := g.Randn(1, 64, 3, 3, 3)
	q.TrainForward(x)
	q.Calibrating = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.TrainForward(x)
	}
}

// BenchmarkEngineVsIntModel compares the fused+prepacked engine against
// the IntLayer interpreter on the serving hot path at batch 1, 8, and
// 32. allocs/op is the headline: the engine stays flat while the
// interpreter allocates per op.
func BenchmarkEngineVsIntModel(b *testing.B) {
	trainDS, _ := data.Generate(data.SynthCIFAR10, 64, 8)
	g := tensor.NewRNG(8)
	model := models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
	xw, _ := trainDS.Batch([]int{0, 1, 2, 3})
	model.Forward(xw) // realistic BN stats
	im := buildDeploy(b, model, trainDS)
	unfused, err := engine.Lower(im)
	if err != nil {
		b.Fatal(err)
	}
	fused := engine.Optimize(unfused, engine.OptFuse)
	for _, batch := range []int{1, 8, 32} {
		x := g.Uniform(0, 1, batch, 3, 32, 32)
		b.Run(fmt.Sprintf("interpreter/batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				im.Forward(x)
			}
		})
		b.Run(fmt.Sprintf("engine-fused/batch%d", batch), func(b *testing.B) {
			ex, err := engine.NewExecutor(fused, x.Shape, engine.WithKernels(engine.FastKernels()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ex.Execute(x); err != nil { // warm scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineServer measures the batched serving runtime under
// concurrent single-sample load.
func BenchmarkEngineServer(b *testing.B) {
	trainDS, _ := data.Generate(data.SynthCIFAR10, 64, 8)
	g := tensor.NewRNG(9)
	model := models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
	xw, _ := trainDS.Batch([]int{0, 1, 2, 3})
	model.Forward(xw)
	im := buildDeploy(b, model, trainDS)
	prog, err := engine.Lower(im)
	if err != nil {
		b.Fatal(err)
	}
	prog = engine.Optimize(prog, engine.OptFuse)
	srv, err := engine.NewServer(prog, []int{3, 32, 32}, engine.ServerOptions{MaxBatch: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	x := g.Uniform(0, 1, 1, 3, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := srv.Infer(x); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := srv.Stats()
	b.ReportMetric(st.MeanBatch(), "mean_batch")
}

func BenchmarkDeployForwardMobileNet(b *testing.B) {
	trainDS, _ := data.Generate(data.SynthCIFAR10, 64, 8)
	g := tensor.NewRNG(6)
	model := models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
	x, _ := trainDS.Batch([]int{0, 1, 2, 3})
	model.Forward(x) // realistic BN stats
	im := buildDeploy(b, model, trainDS)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Forward(x)
	}
}

func BenchmarkFakeQuantForwardMobileNet(b *testing.B) {
	trainDS, _ := data.Generate(data.SynthCIFAR10, 64, 8)
	g := tensor.NewRNG(7)
	model := models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
	x, _ := trainDS.Batch([]int{0, 1, 2, 3})
	model.Forward(x)
	buildDeploy(b, model, trainDS) // prepares + calibrates the model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Forward(x)
	}
}

// BenchmarkEngineViT runs the integer transformer through the compiled
// engine vs the IntLayer interpreter — the transformer counterpart of
// BenchmarkEngineVsIntModel (per-head attention matmuls, integer
// softmax/LayerNorm/GELU, prepacked projections).
func BenchmarkEngineViT(b *testing.B) {
	trainDS, _ := data.Generate(data.SynthCIFAR10, 64, 8)
	g := tensor.NewRNG(14)
	cfg := models.ViT7(32, 10)
	cfg.Depth = 2
	model := models.NewViT(g, cfg)
	im := buildDeploy(b, model, trainDS)
	unfused, err := engine.Lower(im)
	if err != nil {
		b.Fatal(err)
	}
	fused := engine.Optimize(unfused, engine.OptFuse)
	for _, batch := range []int{1, 8} {
		x := g.Uniform(0, 1, batch, 3, 32, 32)
		b.Run(fmt.Sprintf("interpreter/batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				im.Forward(x)
			}
		})
		ex, err := engine.NewExecutor(fused, x.Shape, engine.WithKernels(engine.FastKernels()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Execute(x); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("engine-fused/batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
