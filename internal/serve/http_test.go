package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
)

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// predictBody marshals one predict payload.
func predictBody(shape []int, data []float32) ([]byte, error) {
	return json.Marshal(export.InputTensor{Shape: shape, Data: data})
}

func checkpointBody(t *testing.T, ck *export.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ck.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHTTPEndToEnd(t *testing.T) {
	ck, im := buildCheckpoint(t, 5)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()

	// Upload the checkpoint.
	resp, body := postJSON(t, ts.URL+"/v1/models/cnn", checkpointBody(t, ck))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var info serve.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Name != "cnn" {
		t.Fatalf("upload info %+v", info)
	}

	// healthz.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"ok"`) {
		t.Fatalf("healthz %d: %s", hr.StatusCode, hb)
	}

	// Single-sample predict, bit-identical to the interpreter.
	g := tensor.NewRNG(500)
	x := g.Uniform(0, 1, 1, 3, 8, 8)
	pb, err := predictBody([]int{3, 8, 8}, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 1 {
		t.Fatalf("predictions %d, want 1", len(pr.Predictions))
	}
	want := im.Forward(x)
	if pr.Predictions[0].Class != want.Argmax() {
		t.Fatalf("class %d, want %d", pr.Predictions[0].Class, want.Argmax())
	}
	for i := range want.Data {
		if pr.Predictions[0].Logits[i] != want.Data[i] {
			t.Fatalf("logit[%d] = %v, interpreter %v", i, pr.Predictions[0].Logits[i], want.Data[i])
		}
	}

	// Batched predict: shape [N, sample...], one prediction per sample.
	const batch = 3
	xb := g.Uniform(0, 1, batch, 3, 8, 8)
	pb, err = predictBody([]int{batch, 3, 8, 8}, xb.Data)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batched predict status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != batch {
		t.Fatalf("predictions %d, want %d", len(pr.Predictions), batch)
	}
	sampleN := len(xb.Data) / batch
	for i := 0; i < batch; i++ {
		xi := tensor.FromSlice(append([]float32(nil), xb.Data[i*sampleN:(i+1)*sampleN]...), 1, 3, 8, 8)
		wi := im.Forward(xi)
		for j := range wi.Data {
			if pr.Predictions[i].Logits[j] != wi.Data[j] {
				t.Fatalf("sample %d logit[%d] = %v, interpreter %v", i, j, pr.Predictions[i].Logits[j], wi.Data[j])
			}
		}
	}

	// Listing.
	lr, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := io.ReadAll(lr.Body)
	lr.Body.Close()
	if !strings.Contains(string(lb), `"cnn"`) {
		t.Fatalf("listing missing model: %s", lb)
	}

	// Hot reload over HTTP bumps the version.
	resp, body = postJSON(t, ts.URL+"/v1/models/cnn", checkpointBody(t, ck))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("reload version = %d, want 2", info.Version)
	}

	// Replaying the first input against the reloaded version: the
	// checkpoint content is identical, so the fingerprint-keyed cache
	// stays warm across the reload and serves this as a hit —
	// bit-identical logits, no engine execution.
	pbr, err := predictBody([]int{3, 8, 8}, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict", pbr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload predict status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Predictions[0].Cached {
		t.Fatalf("post-reload replay not served from cache: %+v", pr.Predictions[0])
	}
	for i := range want.Data {
		if pr.Predictions[0].Logits[i] != want.Data[i] {
			t.Fatalf("cached logit[%d] = %v, interpreter %v", i, pr.Predictions[0].Logits[i], want.Data[i])
		}
	}

	// A fresh input still executes: bound executors make the memory
	// gauges below live for the reloaded pool.
	xf := g.Uniform(0, 1, 1, 3, 8, 8)
	pbf, err := predictBody([]int{3, 8, 8}, xf.Data)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict", pbf)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload fresh predict status %d: %s", resp.StatusCode, body)
	}

	// Metrics: per-model counters and the engine histogram/gauges.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	ms := string(mb)
	for _, wantLine := range []string{
		`t2c_requests_total{model="cnn",result="ok"} 4`,
		`t2c_request_latency_seconds_count{model="cnn",result="ok"} 4`,
		`t2c_request_latency_seconds_bucket{model="cnn",result="ok",le="+Inf"} 4`,
		`t2c_queue_depth{model="cnn"}`,
		`t2c_batch_wait_seconds_count{model="cnn"}`,
		`t2c_batch_exec_seconds_count{model="cnn"}`,
		`t2c_model_version{model="cnn"} 2`,
		`t2c_engine_requests_total{model="cnn"} 5`, // 1 single + 3 batched + 1 post-reload fresh
		`t2c_cache_hits_total{model="cnn"} 1`,      // the post-reload replay
		`t2c_engine_arena_bytes{model="cnn"}`,
		`t2c_engine_scratch_bytes{model="cnn"}`,
		`t2c_engine_weight_sparsity{model="cnn"}`,
		`t2c_engine_skip_fraction{model="cnn"}`,
	} {
		if !strings.Contains(ms, wantLine) {
			t.Fatalf("metrics missing %q in:\n%s", wantLine, ms)
		}
	}
	// Traffic has flowed through the reloaded version, so its executors
	// hold at least one planned arena: the gauge must be positive.
	var arena int64
	for _, line := range strings.Split(ms, "\n") {
		if strings.HasPrefix(line, `t2c_engine_arena_bytes{model="cnn"} `) {
			if _, err := fmt.Sscanf(line, `t2c_engine_arena_bytes{model="cnn"} %d`, &arena); err != nil {
				t.Fatalf("unparsable arena gauge %q: %v", line, err)
			}
		}
	}
	if arena <= 0 {
		t.Fatalf("arena gauge = %d, want > 0", arena)
	}

	// DELETE retires the model; predict then 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/cnn", nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dr.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after delete status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPRejectsBadRequests(t *testing.T) {
	ck, _ := buildCheckpoint(t, 6)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}

	// Unknown model.
	g := tensor.NewRNG(600)
	pb, _ := predictBody([]int{3, 8, 8}, g.Uniform(0, 1, 3, 8, 8).Data)
	resp, _ := postJSON(t, ts.URL+"/v1/models/nope:predict", pb)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status %d, want 404", resp.StatusCode)
	}

	// Transposed layout with matching element count.
	bad, _ := predictBody([]int{8, 8, 3}, g.Uniform(0, 1, 8, 8, 3).Data)
	resp, body := postJSON(t, ts.URL+"/v1/models/cnn:predict", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("transposed input status %d (%s), want 400", resp.StatusCode, body)
	}

	// Garbage payloads, including a shape whose element count wraps int64
	// to 0 and so would match the empty data.
	for _, b := range []string{"{", `{"shape":[288230376151711744,3,8,8],"data":[]}`} {
		resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict", []byte(b))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("predict %s status %d (%s), want 400", b, resp.StatusCode, body)
		}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/models/other", []byte("not a checkpoint"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status %d, want 400", resp.StatusCode)
	}

	// A body past MaxBodyBytes is too large (413), not malformed (400),
	// on both predict and upload.
	small := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{MaxBodyBytes: 64}))
	defer small.Close()
	for _, url := range []string{small.URL + "/v1/models/cnn:predict", small.URL + "/v1/models/other"} {
		resp, body = postJSON(t, url, pb)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("over-limit body to %s: status %d (%s), want 413", url, resp.StatusCode, body)
		}
	}

	// Bad deadline parameters: unparsable, negative, and zero are all
	// client errors, not generic 500s.
	for _, q := range []string{"banana", "-5", "0"} {
		resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict?deadline_ms="+q, pb)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline_ms=%s status %d (%s), want 400", q, resp.StatusCode, body)
		}
	}

	// Unknown priority class is a client error; known classes serve.
	resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict?priority=urgent", pb)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("priority=urgent status %d (%s), want 400", resp.StatusCode, body)
	}
	for _, q := range []string{"high", "normal", "low"} {
		resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict?priority="+q, pb)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("priority=%s status %d (%s), want 200", q, resp.StatusCode, body)
		}
	}
}

// TestHTTPUploadRejectsCorruptTensors: a checkpoint upload whose
// weight tensor does not match its shape (a data length off by one, a
// negative dimension), has the wrong rank for its conv or linear
// instruction, or whose conv or pool window does not fit its input gets
// a 400 naming the fault, and the model it would have replaced keeps
// serving.
func TestHTTPUploadRejectsCorruptTensors(t *testing.T) {
	ck, _ := buildCheckpoint(t, 6)
	reg := serve.NewRegistry(serve.Options{CacheCapacity: -1})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	weight := map[engine.OpKind]string{}
	for _, is := range ck.Program.Instrs {
		weight[engine.OpKind(is.Kind)] = is.Weight
	}
	conv, lin := weight[engine.OpConv], weight[engine.OpLinear]
	inTensor := func(name string, f func(*export.CkptTensor)) func(*export.Checkpoint) {
		return func(ck *export.Checkpoint) {
			ct := ck.Tensors[name]
			f(&ct)
			ck.Tensors[name] = ct
		}
	}
	// inInstr edits the nth instruction of kind k (the convs are 3×3: the
	// first at stride 1, the second at stride 2; the pool sees a 4×4 map
	// at the 8×8 input).
	inInstr := func(k engine.OpKind, nth int, f func(*export.InstrSpec)) func(*export.Checkpoint) {
		for i, is := range ck.Program.Instrs {
			if engine.OpKind(is.Kind) != k {
				continue
			}
			if nth--; nth < 0 {
				return func(ck *export.Checkpoint) { f(&ck.Program.Instrs[i]) }
			}
		}
		t.Fatalf("no %s instruction to edit", k)
		return nil
	}
	unpadConv2 := inInstr(engine.OpConv, 1, func(is *export.InstrSpec) { is.Padding = 0 })
	// linPastBufs points the linear's operand past the last buffer.
	linPastBufs := inInstr(engine.OpLinear, 0, func(is *export.InstrSpec) { is.In = []int{ck.Program.NumBufs + 5} })
	cases := []struct {
		name   string
		mutate func(*export.Checkpoint)
		want   string
	}{
		{"data-length", inTensor(conv, func(ct *export.CkptTensor) { ct.Data = ct.Data[1:] }), "does not match"},
		{"negative-dim", inTensor(conv, func(ct *export.CkptTensor) {
			ct.Shape = []int{-ct.Shape[0], -ct.Shape[1], ct.Shape[2], ct.Shape[3]}
		}), "does not match"},
		{"conv-rank-0", inTensor(conv, func(ct *export.CkptTensor) { ct.Shape, ct.Data = nil, ct.Data[:1] }), "want rank 4"},
		{"linear-rank-1", inTensor(lin, func(ct *export.CkptTensor) { ct.Shape = []int{len(ct.Data)} }), "want rank 2"},
		{"linear-no-rows", inTensor(lin, func(ct *export.CkptTensor) { ct.Shape, ct.Data = []int{0, ct.Shape[1]}, nil }), "no empty dimension"},
		{"conv-negative-padding", inInstr(engine.OpConv, 1, func(is *export.InstrSpec) { is.Padding = -3 }), "negative padding -3"},
		{"conv-window-past-input", func(ck *export.Checkpoint) {
			ck.Program.InShape = []int{3, 2, 2}
			unpadConv2(ck)
		}, "too small for 3x3 kernel"},
		{"avgpool-window-past-input", inInstr(engine.OpAvgPool, 0, func(is *export.InstrSpec) { is.Kernel, is.PoolStride = 9, 16 }), "pool kernel 9 outside"},
		{"avgpool-negative-kernel", inInstr(engine.OpAvgPool, 0, func(is *export.InstrSpec) { is.Kernel = -2 }), "pool kernel -2 outside"},
		{"operand-past-numbufs-v4", linPastBufs, "outside [0,"},
		{"operand-past-numbufs-v2", func(ck *export.Checkpoint) {
			ck.Program.Version, ck.Program.BufDTypes = 2, nil
			linPastBufs(ck)
		}, "outside [0,"},
	}
	pb := mustPredictBody(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *ck
			bad.Tensors = maps.Clone(ck.Tensors)
			prog := *ck.Program
			prog.Instrs = slices.Clone(prog.Instrs)
			bad.Program = &prog
			tc.mutate(&bad)
			resp, body := postJSON(t, ts.URL+"/v1/models/cnn", checkpointBody(t, &bad))
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
				t.Fatalf("upload status %d (%s), want 400 naming %q", resp.StatusCode, body, tc.want)
			}
			resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"version":1`) {
				t.Fatalf("predict after rejected upload: status %d (%s), want 200 from version 1", resp.StatusCode, body)
			}
		})
	}
	closed := make(chan struct{})
	go func() {
		reg.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Registry.Close still blocked 10 s after the rejected uploads")
	}
}

// TestHTTPDeadlineExpiredAtAdmission: a request whose deadline has
// already passed once the body is parsed must be rejected with 504
// before it reaches the engine at all — no fan-out, no wasted compute.
func TestHTTPDeadlineExpiredAtAdmission(t *testing.T) {
	ck, _ := buildCheckpoint(t, 8)
	reg := serve.NewRegistry(serve.Options{CacheCapacity: -1})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}

	// A large batch makes body decode reliably outlast the 1 ms deadline.
	g := tensor.NewRNG(601)
	x := g.Uniform(0, 1, 256, 3, 8, 8)
	pb, err := predictBody([]int{256, 3, 8, 8}, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/cnn:predict?deadline_ms=1", pb)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("pre-expired predict status %d (%s), want 504", resp.StatusCode, body)
	}
	if got := reg.Models()[0].Stats.Requests; got != 0 {
		t.Fatalf("expired request fanned out to the engine (%d requests served)", got)
	}
}

// TestHTTPOverloadReturns429: with the worker held and one queue slot
// left, a two-sample predict is refused whole with 429 and counted once
// as rejected.
func TestHTTPOverloadReturns429(t *testing.T) {
	ck, _ := buildCheckpoint(t, 7)
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := serve.NewRegistry(serve.Options{
		Engine: engine.ServerOptions{Workers: 1, MaxBatch: 1, QueueSize: 2, Kernels: blockingKernels(gate, release)},
	})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	// Runs before Close, so a failed assertion cannot leave it waiting
	// on the held worker.
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}

	g := tensor.NewRNG(700)
	one, _ := predictBody([]int{3, 8, 8}, g.Uniform(0, 1, 3, 8, 8).Data)
	var wg sync.WaitGroup
	send := func(body []byte) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/models/cnn:predict", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("admitted request finished %d: %s", resp.StatusCode, b)
			}
		}()
	}
	send(one)
	<-gate // worker parked mid-execute
	two, _ := predictBody([]int{2, 3, 8, 8}, g.Uniform(0, 1, 2, 3, 8, 8).Data)
	send(two) // the batcher's hand (MaxBatch 1) + 1 of 2 queue slots
	waitDepth(t, reg, 1)

	two, _ = predictBody([]int{2, 3, 8, 8}, g.Uniform(0, 1, 2, 3, 8, 8).Data)
	resp, body := postJSON(t, ts.URL+"/v1/models/cnn:predict", two)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d (%s), want 429", resp.StatusCode, body)
	}
	unblock()
	wg.Wait()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		`t2c_requests_total{model="cnn",result="rejected"} 1`,
		`t2c_engine_queue_rejects_total{model="cnn"} 2`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, mb)
		}
	}
}

func TestHTTPBatchWiderThanAdmissionBudget(t *testing.T) {
	// The admission budget is the queue capacity: a single batched
	// request wider than the queue must run in waves of that many samples
	// and succeed on an idle server, not 429 against itself.
	ck, _ := buildCheckpoint(t, 9)
	reg := serve.NewRegistry(serve.Options{Engine: engine.ServerOptions{QueueSize: 2}})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}

	const batch = 6
	g := tensor.NewRNG(800)
	pb, err := predictBody([]int{batch, 3, 8, 8}, g.Uniform(0, 1, batch, 3, 8, 8).Data)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wide batch status %d (%s), want 200", resp.StatusCode, body)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != batch {
		t.Fatalf("predictions %d, want %d", len(pr.Predictions), batch)
	}
	if st := reg.Models()[0].Stats; st.Batches != batch/2 || st.Requests != batch {
		t.Fatalf("%d samples ran as %d batches over %d samples, want %d waves of 2", batch, st.Batches, st.Requests, batch/2)
	}
}

// TestHTTPConcurrentPredicts: 4 clients × 16 back-to-back POSTs against
// a default-options server all succeed, none is shed with 429, and every
// response is bit-identical to a sequential predict of the same body on
// a server without a cache.
func TestHTTPConcurrentPredicts(t *testing.T) {
	const clients, perClient, distinct = 4, 16, 8
	ck, _ := buildCheckpoint(t, 8)
	newServer := func(opts serve.Options) *httptest.Server {
		reg := serve.NewRegistry(opts)
		t.Cleanup(reg.Close)
		if _, err := reg.Load("cnn", ck, nil); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
		t.Cleanup(ts.Close)
		return ts
	}
	ts := newServer(serve.Options{})
	ref := newServer(serve.Options{CacheCapacity: -1})

	// Each client cycles the same bodies from a different offset, so equal
	// bodies are in flight at once and the cache serves some of them.
	g := tensor.NewRNG(1000)
	bodies := make([][]byte, distinct)
	want := make([]serve.Prediction, distinct)
	for i := range bodies {
		var err error
		if bodies[i], err = predictBody([]int{3, 8, 8}, g.Uniform(0, 1, 3, 8, 8).Data); err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ref.URL+"/v1/models/cnn:predict", bodies[i])
		var pr serve.PredictResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pr) != nil || len(pr.Predictions) != 1 {
			t.Fatalf("sequential predict %d: status %d: %s", i, resp.StatusCode, body)
		}
		want[i] = pr.Predictions[0]
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := (c*3 + k) % distinct
				resp, err := http.Post(ts.URL+"/v1/models/cnn:predict", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				var pr serve.PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || len(pr.Predictions) != 1 {
					t.Errorf("client %d request %d: status %d, decode %v", c, k, resp.StatusCode, err)
					return
				}
				got := pr.Predictions[0]
				if got.Class != want[i].Class || !slices.Equal(got.Logits, want[i].Logits) {
					t.Errorf("client %d body %d: got %v, sequential %v", c, i, got, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
