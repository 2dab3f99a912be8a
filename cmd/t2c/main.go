// Command t2c runs the end-to-end Torch2Chip workflow on a chosen model
// and synthetic dataset: train (QAT or FP32+PTQ), calibrate, fuse,
// convert to the integer-only deploy model, and export the parameters
// (the JSON checkpoint carries the compiled engine program).
//
//	t2c -model mobilenet -dataset cifar10 -wbits 4 -abits 4 \
//	    -weight sawb -act pact -trainer qat -epochs 8 -out out/ \
//	    -save-inputs 16
//
// The serve subcommand loads an exported checkpoint and starts the
// network-facing multi-model HTTP server:
//
//	t2c serve -ckpt out/model_int.json -http :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/prune"
	"torch2chip/internal/quant"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
	"torch2chip/internal/train"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	runCompile()
}

// runServe loads a checkpoint's program section and starts the HTTP
// serving subsystem on the -http address.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	ckptPath := fs.String("ckpt", "t2c-out/model_int.json", "JSON checkpoint with program section (empty starts with no models)")
	httpAddr := fs.String("http", "", "listen address for the HTTP serving API (e.g. :8080); required")
	name := fs.String("name", "default", "model name the checkpoint is registered under")
	shape := fs.String("shape", "", "sample input shape override, e.g. 3,32,32 (for checkpoints without a recorded in_shape)")
	deadlineFlag := fs.Duration("deadline", 0, "default per-request deadline (0 = none)")
	workers := fs.Int("workers", 0, "serving workers per model, sharing its queue (0 = auto)")
	maxBatch := fs.Int("max-batch", 8, "micro-batch size")
	queue := fs.Int("queue", 0, "request queue capacity per model, in samples; a request that does not fit gets 429 (0 = auto)")
	sched := fs.String("sched", "edf", "request scheduling policy: edf (deadline-driven) or fifo")
	cacheCap := fs.Int("cache-capacity", 0, "content-addressed inference cache entries per model (0 = default 1024, negative = disabled)")
	cacheFloor := fs.Float64("cache-floor", 0, "observed hit rate below which cache inserts back off (0 = default 0.02, negative = no floor)")
	traceOn := fs.Bool("trace", false, "record per-model spans, served at /debug/trace?model=X")
	traceSpans := fs.Int("trace-spans", 0, "span ring capacity per ring with -trace (0 = default 4096)")
	traceSample := fs.Int("trace-sample", 0, "with -trace, trace one in N HTTP requests (0 = every request)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
	if *httpAddr == "" {
		log.Fatal("serve: pass -http with a listen address, e.g. -http :8080")
	}
	schedPolicy, err := engine.ParseSchedPolicy(*sched)
	if err != nil {
		log.Fatal(err)
	}
	opts := serve.Options{
		Engine: engine.ServerOptions{
			Workers: *workers, MaxBatch: *maxBatch, QueueSize: *queue,
			Sched: schedPolicy,
		},
		DefaultDeadline: *deadlineFlag,
		CacheCapacity:   *cacheCap,
		CacheHitFloor:   *cacheFloor,
	}
	if *traceOn {
		opts.Trace = &trace.Config{RingSpans: *traceSpans, SampleEvery: *traceSample}
	}
	var sample []int
	if *shape != "" {
		var err error
		if sample, err = serve.ParseShape(*shape); err != nil {
			log.Fatal(err)
		}
	}
	runServeHTTP(*httpAddr, *ckptPath, *name, sample, opts, *pprofOn)
}

// instrKindSummary renders per-OpKind instruction counts (sorted by
// kind name), so the fusion summary shows what the compiled graph is
// made of — for ViT that surfaces the attention lowering at a glance.
func instrKindSummary(prog *engine.Program) string {
	counts := map[string]int{}
	for i := range prog.Instrs {
		counts[string(prog.Instrs[i].Kind)]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}

// explainTable renders the per-instruction record, one line per
// instruction: output shape, dtype and arena placement, the bound path,
// the modeled ns per sample, and the sparsity facts of pruned weights.
func explainTable(rows []engine.KernelChoice) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%4s %-20s %-10s %-16s %-5s %9s %9s %-13s %11s\n",
		"#", "name", "kind", "out", "dtype", "offset", "bytes", "path", "ns/sample")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%4d %-20s %-10s %-16s %-5s %9d %9d %-13s %11.0f",
			r.Index, r.Name, r.Kind, fmt.Sprint(r.OutShape), r.OutDType, r.Offset, r.Bytes, r.Path, r.ModeledNs)
		if r.WeightSparsity > 0 {
			fmt.Fprintf(&sb, "  ws=%.2f skip=%.2f", r.WeightSparsity, r.SkipFrac)
		}
		if r.NM != "" {
			fmt.Fprintf(&sb, " nm=%s", r.NM)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func readCheckpoint(path string) *export.Checkpoint {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	ck, err := export.ReadJSON(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	return ck
}

// runServeHTTP starts the multi-model serving subsystem: registry +
// HTTP API with graceful shutdown on SIGINT/SIGTERM (in-flight requests
// drain before exit).
func runServeHTTP(addr, ckptPath, name string, sample []int, opts serve.Options, pprof bool) {
	reg := serve.NewRegistry(opts)
	if ckptPath != "" {
		info, err := reg.Load(name, readCheckpoint(ckptPath), sample)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded model %q v%d (sample %v)", info.Name, info.Version, info.Sample)
	}
	srv := &http.Server{Addr: addr, Handler: serve.NewHandler(reg, serve.HandlerOptions{EnablePprof: pprof})}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(done)
	}()
	log.Printf("serving HTTP on %s", addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
	reg.Close()
}

func runCompile() {
	modelName := flag.String("model", "mobilenet", "model: resnet20|resnet18|resnet50|mobilenet|vit")
	dataset := flag.String("dataset", "cifar10", "dataset: cifar10|cifar100|imagenet|aircraft|flowers|food")
	wbits := flag.Int("wbits", 8, "weight bits")
	abits := flag.Int("abits", 8, "activation bits")
	weight := flag.String("weight", "minmax", "weight quantizer: minmax|sawb|rcf|lsq|adaround")
	act := flag.String("act", "minmax", "activation quantizer: minmax|pact|rcf|lsq|qdrop")
	trainer := flag.String("trainer", "qat", "trainer: qat|ptq")
	pruneSparsity := flag.Float64("prune-sparsity", 0,
		"one-shot global magnitude prune to this weight sparsity after training, before quantize+compile (0 = off)")
	pruneNM := flag.String("prune-nm", "",
		"one-shot N:M structured prune after training, before quantize+compile, e.g. 2:4")
	epochs := flag.Int("epochs", 8, "training epochs")
	trainN := flag.Int("train-n", 600, "training samples")
	testN := flag.Int("test-n", 200, "test samples")
	out := flag.String("out", "t2c-out", "export directory")
	opt := flag.Int("opt", 1, "engine optimization level: 0 = unfused graph, 1 = fused epilogues")
	formats := flag.String("formats", "hex,json", "comma-separated export formats: hex,bin,raw,json")
	saveInputs := flag.Int("save-inputs", 0, "also write N test samples to <out>/inputs for t2c serve")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	spec, ok := map[string]data.Spec{
		"cifar10": data.SynthCIFAR10, "cifar100": data.SynthCIFAR100,
		"imagenet": data.SynthImageNet, "aircraft": data.SynthAircraft,
		"flowers": data.SynthFlowers, "food": data.SynthFood,
	}[*dataset]
	if !ok {
		log.Fatalf("unknown dataset %q", *dataset)
	}
	trainDS, testDS := data.Generate(spec, *trainN, *testN)
	g := tensor.NewRNG(*seed)
	var model nn.Layer
	switch *modelName {
	case "resnet20":
		model = models.NewResNet(g, models.ResNet20(trainDS.NumClasses))
	case "resnet18":
		model = models.NewResNet(g, models.ResNet18(trainDS.NumClasses))
	case "resnet50":
		model = models.NewResNet(g, models.ResNet50(trainDS.NumClasses))
	case "mobilenet":
		model = models.NewMobileNetV1(g, models.MobileNetV1(trainDS.NumClasses))
	case "vit":
		model = models.NewViT(g, models.ViT7(spec.Size, trainDS.NumClasses))
	default:
		log.Fatalf("unknown model %q", *modelName)
	}
	fmt.Printf("model %s: %d parameters\n", *modelName, models.CountParams(model))

	cfg := core.DefaultConfig()
	cfg.Quant = quant.Config{WBits: *wbits, ABits: *abits, Weight: *weight, Act: *act,
		PerChannel: true, RNG: tensor.NewRNG(*seed + 1)}
	t2c := core.New(model, cfg)

	calib := trainDS.Subset(8)
	switch *trainer {
	case "qat":
		t2c.Prepare()
		res := (&train.Supervised{
			Model: model, Opt: train.NewSGD(0.05, 0.9, 5e-4),
			Sched:  train.CosineSchedule{Base: 0.05, Min: 0.001},
			Epochs: *epochs, Train: trainDS, Test: testDS, Batch: 32,
			RNG: tensor.NewRNG(*seed + 2),
		}).Run()
		fmt.Printf("QAT final loss %.4f acc %.2f%%\n",
			res.TrainLoss[len(res.TrainLoss)-1], res.TestAcc[len(res.TestAcc)-1]*100)
	case "ptq":
		res := (&train.Supervised{
			Model: model, Opt: train.NewSGD(0.1, 0.9, 5e-4),
			Sched:  train.CosineSchedule{Base: 0.1, Min: 0.002},
			Epochs: *epochs, Train: trainDS, Test: testDS, Batch: 32,
			RNG: tensor.NewRNG(*seed + 2),
		}).Run()
		fmt.Printf("FP32 acc %.2f%%\n", res.TestAcc[len(res.TestAcc)-1]*100)
		fpLogits := train.CaptureFP(model, calib, 16)
		nn.SetTraining(model, false)
		t2c.Prepare()
		(&train.PTQ{Model: model, Calib: calib, Batch: 16, FPLogits: fpLogits,
			Steps: 8, LR: 1e-2, RegWeight: 0.01}).Run()
	default:
		log.Fatalf("unknown trainer %q", *trainer)
	}

	if *pruneSparsity > 0 || *pruneNM != "" {
		// One-shot prune the trained FP weights before calibration, so
		// quantization scales are fit to the pruned distribution and the
		// exact zeros survive into the integer checkpoint.
		params := prune.PrunableParams(model)
		if len(params) == 0 {
			// QAT wrapping replaces nn.Conv2d/nn.Linear with dual-path
			// leaves; reach through them for the underlying weights.
			convs, lins, _ := quant.QuantizedLayers(model)
			for _, c := range convs {
				params = append(params, c.Conv.W)
			}
			for _, l := range lins {
				params = append(params, l.Lin.W)
			}
		}
		if *pruneNM != "" {
			var n, m int
			if _, err := fmt.Sscanf(*pruneNM, "%d:%d", &n, &m); err != nil {
				log.Fatalf("bad -prune-nm %q (want N:M, e.g. 2:4): %v", *pruneNM, err)
			}
			pr, err := prune.NewNM(params, n, m)
			if err != nil {
				log.Fatal(err)
			}
			pr.Step(1)
			fmt.Printf("pruned %d weight tensors to %d:%d structure\n", len(params), n, m)
		} else {
			prune.NewMagnitude(params, *pruneSparsity).Step(1)
			fmt.Printf("pruned %d weight tensors to %.0f%% global magnitude sparsity\n",
				len(params), *pruneSparsity*100)
		}
	}

	if err := t2c.Calibrate(calib, 16); err != nil {
		log.Fatal(err)
	}
	qAcc := train.Evaluate(model, testDS, 32)
	fmt.Printf("fake-quant accuracy: %.2f%%\n", qAcc*100)

	nn.SetTraining(model, false)
	cm, err := t2c.CompileAt(engine.OptLevel(*opt))
	if err != nil {
		log.Fatal(err)
	}
	im := cm.Int
	// Record the sample input shape so the serving registry can build
	// its engine server straight from the checkpoint.
	cm.Prog.InShape = []int{3, spec.Size, spec.Size}
	fmt.Print(core.Summary(im))
	if cm.Prog.OptLevel > engine.OptNone {
		st := cm.Fusion
		fmt.Printf("fusion: %d→%d instrs, %d→%d buffers (%d rescales, %d adds, %d flattens folded)\n",
			st.InstrsBefore, st.InstrsAfter, st.BuffersBefore, st.BuffersAfter,
			st.FoldedRescales, st.FusedAdds, st.FoldedFlattens)
	}
	fmt.Printf("instructions by kind: %s\n", instrKindSummary(cm.Prog))
	if ws, sf := cm.Prog.SparsityStats(); ws > 0 {
		fmt.Printf("weight sparsity: %.1f%%, modeled MAC skip: %.1f%%\n", ws*100, sf*100)
	}
	ex, err := engine.NewExecutor(cm.Prog, []int{8, 3, spec.Size, spec.Size})
	if err != nil {
		log.Fatalf("compiled program does not bind at batch 8: %v", err)
	}
	fmt.Printf("compiled program: %d instrs, batch-8 %s\n", len(cm.Prog.Instrs), ex.Plan())
	fmt.Print(explainTable(ex.Explain()))

	var fs []core.Format
	for _, f := range strings.Split(*formats, ",") {
		fs = append(fs, core.Format(strings.TrimSpace(f)))
	}
	if err := t2c.ExportCompiled(cm, *out, fs...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %v to %s\n", fs, *out)

	if *saveInputs > 0 {
		dir := filepath.Join(*out, "inputs")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		n := *saveInputs
		if n > testDS.Len() {
			n = testDS.Len()
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		x, _ := testDS.Batch(idx)
		sampleN := x.Numel() / n
		shape := append([]int(nil), x.Shape[1:]...)
		for i := 0; i < n; i++ {
			fp, err := os.Create(filepath.Join(dir, fmt.Sprintf("input_%03d.json", i)))
			if err != nil {
				log.Fatal(err)
			}
			err = export.WriteInputJSON(fp, shape, x.Data[i*sampleN:(i+1)*sampleN])
			cerr := fp.Close()
			if err != nil {
				log.Fatal(err)
			}
			if cerr != nil {
				log.Fatal(cerr)
			}
		}
		fmt.Printf("wrote %d serving inputs to %s\n", n, dir)
	}
}
