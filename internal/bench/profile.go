package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/prune"
	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// buildZooModel constructs the named zoo model for the profile run.
func buildZooModel(g *tensor.RNG, name string, numClasses int) nn.Layer {
	switch name {
	case "resnet20":
		return models.NewResNet(g, models.ResNet20(numClasses))
	case "mobilenet":
		return models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: numClasses, Blocks: 4})
	case "vit":
		cfg := models.ViT7(32, numClasses)
		cfg.Depth = 2
		return models.NewViT(g, cfg)
	default:
		panic(fmt.Sprintf("bench: unknown zoo model %q", name))
	}
}

// zooProgram builds, optionally one-shot prunes (global magnitude to
// sparsity; 0 leaves the weights dense), calibrates and compiles one zoo
// model, returning its fused program.
func zooProgram(sc Scale, name string, sparsity float64) *engine.Program {
	trainDS, _ := data.Generate(data.SynthCIFAR10, sc.TrainN/2, 8)
	g := tensor.NewRNG(9300)
	model := buildZooModel(g, name, trainDS.NumClasses)
	x, _ := trainDS.Batch([]int{0, 1, 2, 3})
	model.Forward(x) // realistic BN statistics
	if sparsity > 0 {
		prune.NewMagnitude(prune.PrunableParams(model), sparsity).Step(1)
	}
	t2c := core.New(model, core.DefaultConfig())
	t2c.Prepare()
	if err := t2c.Calibrate(trainDS.Subset(5), 16); err != nil {
		panic(err)
	}
	nn.SetTraining(model, false)
	cm, err := t2c.Compile()
	if err != nil {
		panic(err)
	}
	return cm.Prog
}

// scaleName labels the scale for the report.
func scaleName(sc Scale) string {
	if sc.TrainN >= Full().TrainN {
		return "full"
	}
	return "quick"
}

// ProfileOp is one op kind's measured-vs-modeled record for one model:
// the mean measured nanoseconds per run (summed over the kind's
// instructions, from the tracer's instruction spans), the bind-time
// cost model's prediction for the same instructions, and their ratio —
// the calibration factor an SLO-aware scheduler would apply to the
// model's constants on this machine.
type ProfileOp struct {
	Op         string  `json:"op"`
	Instrs     int     `json:"instrs"`      // instructions of this kind per run
	Spans      int64   `json:"spans"`       // instruction spans recorded over all iters
	MeasuredNs int64   `json:"measured_ns"` // mean measured ns per run
	ModeledNs  int64   `json:"modeled_ns"`  // cost-model ns per run
	Ratio      float64 `json:"ratio"`       // measured / modeled

	// Hist is the per-span duration distribution across all iterations
	// (trace.OpBucketsNs bounds), exposing the spread the means hide.
	Hist trace.HistSnapshot `json:"hist"`
}

// ProfileModel aggregates one zoo model's profile run.
type ProfileModel struct {
	Model      string      `json:"model"`
	Batch      int         `json:"batch"`
	Iters      int         `json:"iters"`
	MeasuredNs int64       `json:"measured_ns"` // sum of per-op measured means
	ModeledNs  int64       `json:"modeled_ns"`  // sum of per-op model predictions
	Ratio      float64     `json:"ratio"`
	Ops        []ProfileOp `json:"ops"`
}

// ProfileReport is the measured-vs-modeled calibration artifact,
// serialized to BENCH_profile.json.
type ProfileReport struct {
	Scale  string         `json:"scale"`
	Batch  int            `json:"batch"`
	Iters  int            `json:"iters"`
	Models []ProfileModel `json:"models"`
}

// ProfileComparison runs the zoo under instruction-level tracing and
// joins the measured per-op execution times against the work model
// (engine.Program.ModeledOpWork). Runs are pinned to parallelism 1
// because the work model predicts serial work. The first, untraced
// execute warms scratch buffers and the prepack cache so one-time costs
// stay out of the calibration.
func ProfileComparison(sc Scale) *ProfileReport {
	const batch = 8
	iters := 3
	if scaleName(sc) == "full" {
		iters = 10
	}
	old := tensor.SetParallelism(1)
	defer tensor.SetParallelism(old)

	rep := &ProfileReport{Scale: scaleName(sc), Batch: batch, Iters: iters}
	g := tensor.NewRNG(9600)
	// The pruned entry calibrates the sparse-kernel cost constants: its
	// modeled ns already discount skipped MACs (Program.sparseEff), so
	// its ratio should land near the dense models' — a drift means the
	// per-MAC costs of the sparse inner loops need re-measuring.
	models := []struct {
		label  string
		sparse float64
	}{{"mobilenet", 0}, {"resnet20", 0}, {"vit", 0}, {"resnet20/mag70", 0.7}}
	for _, mc := range models {
		zoo, _, _ := strings.Cut(mc.label, "/")
		fused := zooProgram(sc, zoo, mc.sparse)
		x := g.Uniform(0, 1, batch, 3, 32, 32)

		tracer := trace.New(trace.Config{RingSpans: 4096})
		ex, err := engine.NewExecutor(fused, x.Shape,
			engine.WithKernels(engine.FastKernels()), engine.WithTracer(tracer))
		if err != nil {
			panic(err)
		}
		if _, err := ex.Execute(x); err != nil { // untraced warm-up
			panic(err)
		}
		tracer.SetEnabled(true)
		for i := 0; i < iters; i++ {
			if _, err := ex.Execute(x); err != nil {
				panic(err)
			}
		}
		tracer.SetEnabled(false)

		modeled, err := fused.ModeledOpWork(x.Shape)
		if err != nil {
			panic(err)
		}
		modelNs := map[string]*engine.OpWork{}
		for i := range modeled {
			modelNs[string(modeled[i].Kind)] = &modeled[i]
		}

		pm := ProfileModel{Model: mc.label, Batch: batch, Iters: iters}
		for _, op := range tracer.OpProfile() {
			po := ProfileOp{
				Op:         op.Name,
				Spans:      op.Count,
				MeasuredNs: op.SumNs / int64(iters),
				Hist:       op.Hist,
			}
			if w := modelNs[op.Name]; w != nil {
				po.Instrs = w.Instrs
				po.ModeledNs = w.WorkNs
				if w.WorkNs > 0 {
					po.Ratio = float64(po.MeasuredNs) / float64(w.WorkNs)
				}
			}
			pm.MeasuredNs += po.MeasuredNs
			pm.ModeledNs += po.ModeledNs
			pm.Ops = append(pm.Ops, po)
		}
		if pm.ModeledNs > 0 {
			pm.Ratio = float64(pm.MeasuredNs) / float64(pm.ModeledNs)
		}
		rep.Models = append(rep.Models, pm)
	}
	return rep
}

// WriteProfileJSON serializes the report (indented, trailing newline).
func WriteProfileJSON(path string, rep *ProfileReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// FormatProfile renders the measured-vs-modeled calibration table.
func FormatProfile(rep *ProfileReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Profile — measured vs modeled ns per run (batch %d, parallelism 1, %d iters)\n",
		rep.Batch, rep.Iters)
	fmt.Fprintf(&sb, "%-10s %-14s %7s %7s %14s %14s %8s\n",
		"model", "op", "instrs", "spans", "measured ns", "modeled ns", "ratio")
	for _, m := range rep.Models {
		for _, op := range m.Ops {
			fmt.Fprintf(&sb, "%-10s %-14s %7d %7d %14d %14d %8.2f\n",
				m.Model, op.Op, op.Instrs, op.Spans, op.MeasuredNs, op.ModeledNs, op.Ratio)
		}
		fmt.Fprintf(&sb, "%-10s %-14s %7s %7s %14d %14d %8.2f\n",
			m.Model, "total", "", "", m.MeasuredNs, m.ModeledNs, m.Ratio)
	}
	return sb.String()
}
