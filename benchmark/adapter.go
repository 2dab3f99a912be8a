package main

// adapter.go is the only file of the benchmark that imports
// torch2chip/internal/...: every call below the HTTP API that the
// benchmark makes is in this file. It is the list of entry points a
// later refactor must keep, or change through a benchmark PR first.

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"torch2chip/internal/core"
	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/fuse"
	"torch2chip/internal/models"
	"torch2chip/internal/nn"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
)

const (
	numClasses = 10
	modelName  = "m" // the name the checkpoint is served under
)

var sampleShape = []int{3, 32, 32}

// engineOptions are the fixed serving conditions: everything is the
// zero value, which is what `t2c serve` gives (cache on at 1024
// entries, EDF, MaxBatch 8, BatchWait 500µs), except that one worker
// with one kernel thread serves: the benchmark runs on one thread.
func engineOptions() engine.ServerOptions {
	return engine.ServerOptions{Workers: 1, KernelThreads: 1}
}

// setupTimes are the phases of one deploy call, as deploy's caller left
// them.
type setupTimes struct {
	BuildCalibrate time.Duration // float model, Prepare, Calibrate
	Compile        time.Duration
	Write          time.Duration // Checkpoint.WriteJSON
	Read           time.Duration // export.ReadJSON
	Load           time.Duration // Registry.Load
	CkptBytes      int
	Instrs         int
}

// deployment is one model taken through the paper's flow and served:
// the interpreter kept as the oracle, the exported checkpoint, and the
// registry and handler that serve it.
type deployment struct {
	oracle  *fuse.IntModel
	ckpt    []byte
	reg     *serve.Registry
	handler http.Handler
	times   setupTimes
}

// buildFloatModel returns the zoo configuration internal/bench uses for
// name, with weights fixed by the generator's seed.
func buildFloatModel(g *tensor.RNG, name string) (nn.Layer, error) {
	switch name {
	case "resnet20":
		return models.NewResNet(g, models.ResNet20(numClasses)), nil
	case "mobilenet":
		return models.NewMobileNetV1(g, models.MobileNetConfig{WidthMult: 1, NumClasses: numClasses, Blocks: 4}), nil
	case "vit":
		cfg := models.ViT7(32, numClasses)
		cfg.Depth = 2
		return models.NewViT(g, cfg), nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

func (t setupTimes) total() time.Duration {
	return t.BuildCalibrate + t.Compile + t.Write + t.Read + t.Load
}

// deploy runs Prepare → Calibrate → Compile on the named model, exports
// the JSON checkpoint, reads it back and loads it into a fresh registry.
// The whole call is set-up time, except after, which it calls with the
// time each phase took.
func deploy(name string, after func(phase *time.Duration)) (*deployment, error) {
	d := &deployment{}
	from := time.Now()
	lap := func(phase *time.Duration) {
		*phase = time.Since(from)
		after(phase)
		from = time.Now()
	}
	trainDS, _ := data.Generate(data.SynthCIFAR10, 150, 8)
	model, err := buildFloatModel(tensor.NewRNG(9300), name)
	if err != nil {
		return nil, err
	}
	x, _ := trainDS.Batch([]int{0, 1, 2, 3})
	model.Forward(x) // realistic BN statistics
	t2c := core.New(model, core.DefaultConfig())
	t2c.Prepare()
	if err := t2c.Calibrate(trainDS.Subset(5), 16); err != nil {
		return nil, fmt.Errorf("calibrate %s: %w", name, err)
	}
	nn.SetTraining(model, false)
	lap(&d.times.BuildCalibrate)
	cm, err := t2c.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	cm.Prog.InShape = sampleShape
	lap(&d.times.Compile)
	ck := export.NewCheckpoint(cm.Int.IntTensors(), nil)
	ck.Program = cm.Prog.Spec()
	var buf bytes.Buffer
	if err := ck.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("write checkpoint: %w", err)
	}
	d.ckpt = buf.Bytes()
	lap(&d.times.Write)
	back, err := export.ReadJSON(bytes.NewReader(d.ckpt))
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	lap(&d.times.Read)
	d.reg = serve.NewRegistry(serve.Options{Engine: engineOptions()})
	if _, err := d.reg.Load(modelName, back, nil); err != nil {
		d.reg.Close()
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	d.handler = serve.NewHandler(d.reg, serve.HandlerOptions{})
	lap(&d.times.Load)
	d.oracle = cm.Int
	d.times.CkptBytes, d.times.Instrs = len(d.ckpt), len(cm.Prog.Instrs)
	return d, nil
}

func (d *deployment) close() { d.reg.Close() }

// decode is what the predict handler does with a request body before
// anything else: parse the JSON tensor and split it into samples.
func decode(body []byte) ([]*tensor.Tensor, error) {
	in, err := export.ReadInputJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return in.Samples(sampleShape)
}

// oracleLogits returns, for each sample of body, the logits of
// fuse.IntModel.Forward: what every served response must equal bit for
// bit.
func (d *deployment) oracleLogits(body []byte) ([][]float32, error) {
	xs, err := decode(body)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(xs))
	for i, x := range xs {
		out[i] = d.oracle.Forward(x).Data
	}
	return out, nil
}

// checkDistinct fails if two samples of the bodies quantize to the same
// input codes: the inference cache keys on the codes, so such a pair
// would be one input to it.
func (d *deployment) checkDistinct(bodies [][]byte) error {
	seen := map[string]bool{}
	for _, b := range bodies {
		xs, err := decode(b)
		if err != nil {
			return err
		}
		for _, x := range xs {
			codes := tensor.NewInt(x.Shape...)
			d.oracle.InQuant.QuantizeTo(codes, x)
			key := fmt.Sprint(codes.Data)
			if seen[key] {
				return fmt.Errorf("two keys quantize to the same input codes")
			}
			seen[key] = true
		}
	}
	return nil
}

// probes holds what the layer pass calls below the handler: the program
// parsed from the checkpoint the way Registry.Load parses it, an
// engine.Server with the serving options, and a bare executor at the
// workload's batch size.
type probes struct {
	d     *deployment
	prog  *engine.Program
	srv   *engine.Server
	ex    *engine.Executor
	out   *tensor.IntTensor
	batch int
	bind  time.Duration // engine.NewExecutor on the freshly parsed program
}

func (d *deployment) newProbes(batch int) (*probes, error) {
	ck, err := export.ReadJSON(bytes.NewReader(d.ckpt))
	if err != nil {
		return nil, err
	}
	prog, err := engine.FromCheckpoint(ck)
	if err != nil {
		return nil, err
	}
	p := &probes{d: d, prog: prog, batch: batch}
	opts := engineOptions().WithDefaults()
	t0 := time.Now()
	p.ex, err = engine.NewExecutor(prog, append([]int{batch}, sampleShape...),
		engine.WithKernels(opts.Kernels), engine.WithMaxParallel(opts.KernelThreads))
	if err != nil {
		return nil, err
	}
	p.bind = time.Since(t0)
	p.out = tensor.NewInt(p.ex.OutShape()...)
	if p.srv, err = engine.NewServer(prog, sampleShape, engineOptions()); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *probes) close() { p.srv.Close() }

// probeInput is one request decoded and quantized ahead of the timed
// calls that start below the decoder.
type probeInput struct {
	xs    []*tensor.Tensor
	batch *tensor.Tensor    // the samples as one [n,3,32,32] tensor
	codes *tensor.IntTensor // its input codes
}

func (p *probes) prepare(body []byte) (*probeInput, error) {
	xs, err := decode(body)
	if err != nil {
		return nil, err
	}
	if len(xs) != p.batch {
		return nil, fmt.Errorf("body has %d samples, probes are bound at batch %d", len(xs), p.batch)
	}
	in := &probeInput{xs: xs, batch: tensor.New(append([]int{len(xs)}, sampleShape...)...)}
	n := tensor.Numel(sampleShape)
	for i, x := range xs {
		copy(in.batch.Data[i*n:(i+1)*n], x.Data)
	}
	in.codes = tensor.NewInt(in.batch.Shape...)
	p.prog.InQuant.QuantizeTo(in.codes, in.batch)
	return in, nil
}

// eachSample calls f once per sample, concurrently when there are
// several, as the predict handler fans a batched request out.
func eachSample(xs []*tensor.Tensor, f func(x *tensor.Tensor) error) error {
	if len(xs) == 1 {
		return f(xs[0])
	}
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	for i, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(x)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// registryPredict is serve.Registry.Predict per sample, with the
// deadline the workload's requests carry. It returns how many samples
// the inference cache answered.
func (p *probes) registryPredict(in *probeInput, deadline time.Duration) (int, error) {
	var dl time.Time
	if deadline > 0 {
		dl = time.Now().Add(deadline)
	}
	var mu sync.Mutex
	hits := 0
	err := eachSample(in.xs, func(x *tensor.Tensor) error {
		res, err := p.d.reg.Predict(modelName, x, dl, engine.PriNormal, 0)
		if err == nil && res.Cached {
			mu.Lock()
			hits++
			mu.Unlock()
		}
		return err
	})
	return hits, err
}

// serverInfer is engine.Server.Infer per sample.
func (p *probes) serverInfer(in *probeInput) error {
	return eachSample(in.xs, func(x *tensor.Tensor) error {
		_, err := p.srv.Infer(x)
		return err
	})
}

// executeCodes is engine.Executor.ExecuteCodes on the whole request.
func (p *probes) executeCodes(in *probeInput) error {
	_, err := p.ex.ExecuteCodes(in.codes, p.out)
	return err
}

// interpret is fuse.IntModel.Forward on the whole request, on one
// thread as the executor runs.
func (p *probes) interpret(in *probeInput) {
	old := tensor.SetParallelism(1)
	p.d.oracle.Forward(in.batch)
	tensor.SetParallelism(old)
}
