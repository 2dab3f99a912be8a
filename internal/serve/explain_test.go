package serve_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/fuse"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/prune"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// buildZooCheckpoint compiles the benchmark's configuration of a zoo
// model at 3×32×32, magnitude-pruned to sparsity first when it is
// positive, into a servable checkpoint and its interpreter.
func buildZooCheckpoint(t *testing.T, name string, sparsity float64) (*export.Checkpoint, *fuse.IntModel) {
	t.Helper()
	g := tensor.NewRNG(9300)
	var model nn.Layer
	switch name {
	case "resnet20":
		model = models.NewResNet(g, models.ResNet20(10))
	case "mobilenet":
		model = models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: 10, Blocks: 4})
	case "vit":
		cfg := models.ViT7(32, 10)
		cfg.Depth = 2
		model = models.NewViT(g, cfg)
	}
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	x, _ := calib.Batch([]int{0, 1, 2, 3})
	model.Forward(x)
	if sparsity > 0 {
		prune.NewMagnitude(prune.PrunableParams(model), sparsity).Step(1)
	}
	t2c := core.New(model, core.DefaultConfig())
	t2c.Prepare()
	if err := t2c.Calibrate(calib.Subset(8), 4); err != nil {
		t.Fatal(err)
	}
	nn.SetTraining(model, false)
	cm, err := t2c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cm.Prog.InShape = []int{3, 32, 32}
	ck := export.NewCheckpoint(cm.Int.IntTensors(), nil)
	ck.Program = cm.Prog.Spec()
	return ck, cm.Int
}

// getExplain fetches and decodes name's explain record.
func getExplain(t *testing.T, base, name string) serve.Explanation {
	t.Helper()
	resp, err := http.Get(base + "/v1/models/" + name + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain %s: status %d, want 200", name, resp.StatusCode)
	}
	var ex serve.Explanation
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestExplainRecordOnZoo serves each zoo model traced and checks its
// per-instruction record: every instruction has a modeled and a
// measured cost, the paths are what an executor bound like a worker's
// reports, the measured column adds up to the traced batch-execute time
// per sample, and pruning lowers the modeled conv work. An untraced
// model's record answers with the measured columns empty.
func TestExplainRecordOnZoo(t *testing.T) {
	const maxBatch = 4
	convNs := map[string]float64{}
	for _, tc := range []struct {
		name     string
		zoo      string
		sparsity float64
	}{{"resnet20", "resnet20", 0}, {"mobilenet", "mobilenet", 0}, {"vit", "vit", 0}, {"resnet20-mag70", "resnet20", 0.7}} {
		t.Run(tc.name, func(t *testing.T) {
			ck, _ := buildZooCheckpoint(t, tc.zoo, tc.sparsity)
			reg := serve.NewRegistry(serve.Options{
				Engine:        engine.ServerOptions{Workers: 1, MaxBatch: maxBatch},
				CacheCapacity: -1,
				Trace:         &trace.Config{},
			})
			defer reg.Close()
			ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
			defer ts.Close()
			if _, err := reg.Load(tc.name, ck, nil); err != nil {
				t.Fatal(err)
			}
			// Run each batch size once untraced, so first-execute view
			// building stays out of the traced batches.
			tracer := reg.Tracer(tc.name)
			tracer.SetEnabled(false)
			g := tensor.NewRNG(31)
			send := func(n int) {
				body, _ := predictBody([]int{n, 3, 32, 32}, g.Uniform(0, 1, n, 3, 32, 32).Data)
				if resp, b := postJSON(t, ts.URL+"/v1/models/"+tc.name+":predict", body); resp.StatusCode != http.StatusOK {
					t.Fatalf("predict status %d (%s)", resp.StatusCode, b)
				}
			}
			send(1)
			send(3)
			tracer.SetEnabled(true)
			for _, n := range []int{1, 3, 1, 1} {
				send(n)
			}
			tracer.SetEnabled(false)

			ex := getExplain(t, ts.URL, tc.name)
			prog, err := engine.FromCheckpoint(ck)
			if err != nil {
				t.Fatal(err)
			}
			if len(ex.Instrs) != len(prog.Instrs) {
				t.Fatalf("%d rows for %d instructions", len(ex.Instrs), len(prog.Instrs))
			}
			var measured float64
			convNs[tc.name] = 0
			for i, r := range ex.Instrs {
				if r.Index != i || r.ModeledNs <= 0 || r.Spans <= 0 || r.MeasuredNs <= 0 {
					t.Fatalf("row %d %+v: want modeled > 0, spans > 0 and measured > 0", i, r)
				}
				measured += r.MeasuredNs
				if r.Kind == engine.OpConv {
					convNs[tc.name] += r.ModeledNs
				}
			}

			local, err := engine.NewExecutor(prog, []int{maxBatch, 3, 32, 32})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range local.KernelChoices() {
				if got := ex.Instrs[c.Index].Path; got != c.Path {
					t.Fatalf("%s: explain path %q, KernelChoices %q", c.Name, got, c.Path)
				}
			}

			var batchNs float64
			var batches int
			for _, sp := range tracer.Snapshot() {
				if sp.Kind == trace.KindBatch {
					batchNs += float64(sp.Dur) / float64(sp.A0)
					batches++
				}
			}
			if batches != 4 {
				t.Fatalf("%d traced batches, want 4", batches)
			}
			perSample := batchNs / float64(batches)
			t.Logf("%s: measured %.0f ns/sample over %d instrs, traced batch execute %.0f ns/sample",
				tc.name, measured, len(ex.Instrs), perSample)
			if math.Abs(measured-perSample) > 0.05*perSample {
				t.Fatalf("measured column sums to %.0f ns/sample, traced batch execute %.0f: off by more than 5%%",
					measured, perSample)
			}
		})
	}
	if convNs["resnet20-mag70"] >= convNs["resnet20"] {
		t.Fatalf("pruned resnet20 modeled conv %.0f ns/sample, not below dense %.0f", convNs["resnet20-mag70"], convNs["resnet20"])
	}

	// Untraced: the record answers, with the measured columns empty.
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	ck, _ := buildCheckpoint(t, 5)
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	if resp, b := postJSON(t, ts.URL+"/v1/models/cnn:predict", mustPredictBody(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d (%s)", resp.StatusCode, b)
	}
	ex := getExplain(t, ts.URL, "cnn")
	if len(ex.Instrs) == 0 || ex.Model != "cnn" || ex.Version != 1 {
		t.Fatalf("untraced explain = %+v", ex)
	}
	for _, r := range ex.Instrs {
		if r.ModeledNs <= 0 || r.MeasuredNs != 0 || r.Spans != 0 {
			t.Fatalf("untraced row %+v: want modeled > 0 and no measurement", r)
		}
	}
	for path, want := range map[string]int{"/v1/models/nope/explain": http.StatusNotFound, "/v1/models/cnn/other": http.StatusNotFound} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/models/cnn/explain", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST explain: status %d, want 405", resp.StatusCode)
	}
}

// mustPredictBody is one random 3×8×8 sample for buildCheckpoint's CNN.
func mustPredictBody(t *testing.T) []byte {
	t.Helper()
	body, err := predictBody([]int{3, 8, 8}, tensor.NewRNG(5).Uniform(0, 1, 3, 8, 8).Data)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
