package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// chromeDoc mirrors the Chrome trace-event JSON object form.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// fetchTrace GETs base's /debug/trace dump of model cnn and decodes it.
func fetchTrace(t *testing.T, base string) chromeDoc {
	t.Helper()
	tr, err := http.Get(base + "/debug/trace?model=cnn")
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace status %d: %s", tr.StatusCode, tb)
	}
	var doc chromeDoc
	if err := json.Unmarshal(tb, &doc); err != nil {
		t.Fatalf("debug/trace is not valid JSON: %v\n%s", err, tb)
	}
	return doc
}

// TestHTTPDebugTrace drives a traced registry over HTTP and checks the
// /debug/trace dump: valid Chrome trace-event JSON whose spans nest
// request → decode, then fanout → queue_wait → batch → instruction,
// then encode, all stitched to one trace id. A traced predict that
// meets a full queue leaves one admission span with its trace id.
func TestHTTPDebugTrace(t *testing.T) {
	ck, _ := buildCheckpoint(t, 11)
	reg := serve.NewRegistry(serve.Options{
		Trace:  &trace.Config{RingSpans: 4096},
		Engine: engine.ServerOptions{Workers: 1},
	})
	defer reg.Close()
	h := serve.NewHandler(reg, serve.HandlerOptions{EnablePprof: true})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/models/cnn", checkpointBody(t, ck))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}

	g := tensor.NewRNG(900)
	x := g.Uniform(0, 1, 2, 3, 8, 8) // two samples → fan-out spans
	pb, err := predictBody([]int{2, 3, 8, 8}, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/models/cnn:predict", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("traced predict response carries no X-Trace-Id header")
	}

	doc := fetchTrace(t, ts.URL)
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// Collect one span per category and verify the nesting chain.
	type iv struct{ start, end float64 }
	byCat := map[string][]iv{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byCat[ev.Cat] = append(byCat[ev.Cat], iv{ev.Ts, ev.Ts + ev.Dur})
	}
	for _, cat := range []string{"request", "decode", "fanout", "queue_wait", "batch", "instr", "encode"} {
		if len(byCat[cat]) == 0 {
			have := make([]string, 0, len(byCat))
			for k := range byCat {
				have = append(have, k)
			}
			t.Fatalf("no %q spans in dump (have: %v)", cat, have)
		}
	}
	contains := func(outer, inner iv) bool { return outer.start <= inner.start && inner.end <= outer.end }
	nestedIn := func(inner iv, outers []iv) bool {
		for _, o := range outers {
			if contains(o, inner) {
				return true
			}
		}
		return false
	}
	req := byCat["request"][0]
	// The body is decoded inside the request and before any sample fans
	// out.
	dec := byCat["decode"][0]
	if !contains(req, dec) {
		t.Fatalf("decode span %+v escapes the request span %+v", dec, req)
	}
	for _, f := range byCat["fanout"] {
		if f.start < dec.end {
			t.Fatalf("fanout span %+v starts before the decode span %+v ends", f, dec)
		}
	}
	// The reply is encoded inside the request and after the last wave
	// ends.
	enc := byCat["encode"][0]
	if !contains(req, enc) {
		t.Fatalf("encode span %+v escapes the request span %+v", enc, req)
	}
	for _, f := range byCat["fanout"] {
		if enc.start < f.end {
			t.Fatalf("encode span %+v starts before the fanout span %+v ends", enc, f)
		}
	}
	for _, b := range byCat["batch"] {
		if !contains(req, b) {
			t.Fatalf("batch span %+v escapes the request span %+v", b, req)
		}
	}
	for _, in := range byCat["instr"] {
		if !nestedIn(in, byCat["batch"]) {
			t.Fatalf("instruction span %+v not nested in any batch span", in)
		}
	}

	// The engine's instruction spans also surface as per-op histograms.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		`t2c_op_seconds_count{model="cnn",op="conv"}`,
		`t2c_queue_depth{model="cnn"}`,
		`t2c_batch_wait_seconds_count{model="cnn"}`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, mb)
		}
	}

	// pprof was opted in: the index must answer.
	pr, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", pr.StatusCode)
	}

	// A full queue: the worker held, the batcher's hand taken (MaxBatch
	// 1) and one of two slots left. A traced two-sample predict is
	// refused whole, and records one zero-duration admission span with
	// its trace id and the group size.
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	full := serve.NewRegistry(serve.Options{
		Trace:         &trace.Config{RingSpans: 4096},
		CacheCapacity: -1,
		Engine:        engine.ServerOptions{Workers: 1, MaxBatch: 1, QueueSize: 2, Kernels: blockingKernels(gate, release)},
	})
	defer full.Close()
	// Runs before Close, so a failed assertion cannot leave it waiting
	// on the held worker.
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	if _, err := full.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(serve.NewHandler(full, serve.HandlerOptions{}))
	defer fts.Close()
	var wg sync.WaitGroup
	for _, n := range []int{1, 2} {
		xs := samples(g, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := full.PredictBatch("cnn", xs, time.Time{}, engine.PriNormal, 0); err != nil {
				t.Errorf("admitted group of %d failed: %v", n, err)
			}
		}()
		if n == 1 {
			<-gate
		}
	}
	waitDepth(t, full, 1)
	const tid = 0x7e57
	shed, err := http.NewRequest(http.MethodPost, fts.URL+"/v1/models/cnn:predict", bytes.NewReader(pb))
	if err != nil {
		t.Fatal(err)
	}
	shed.Header.Set("X-Trace-Id", fmt.Sprintf("%x", tid))
	resp, err = http.DefaultClient.Do(shed)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	unblock()
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("predict at a full queue status %d (%s), want 429", resp.StatusCode, body)
	}
	var adm []map[string]any
	for _, ev := range fetchTrace(t, fts.URL).TraceEvents {
		if ev.Cat == "admission" {
			adm = append(adm, ev.Args)
		}
	}
	if len(adm) != 1 || adm[0]["id"] != float64(tid) || adm[0]["a0"] != float64(2) {
		t.Fatalf("admission spans %v, want one with id %d and a0 2", adm, tid)
	}
}

// TestDebugTraceErrors covers the endpoint's refusal paths.
func TestDebugTraceErrors(t *testing.T) {
	ck, _ := buildCheckpoint(t, 12)
	reg := serve.NewRegistry(serve.Options{}) // no tracing configured
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL+"/v1/models/cnn", checkpointBody(t, ck)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}

	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/debug/trace", http.StatusBadRequest},            // missing ?model=
		{"/debug/trace?model=absent", http.StatusNotFound}, // unknown model
		{"/debug/trace?model=cnn", http.StatusNotFound},    // tracing off
		{"/debug/pprof/", http.StatusNotFound},             // pprof not opted in
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("GET %s status %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}

// TestMetricsLatencyByResult checks the satellite: expired requests
// feed the latency histogram under their own result label.
func TestMetricsLatencyByResult(t *testing.T) {
	m := serve.NewMetrics()
	m.Observe("m", serve.ResultOK, 5*time.Millisecond)
	m.Observe("m", serve.ResultExpired, 70*time.Millisecond)
	m.Observe("m", serve.ResultError, 9*time.Millisecond)
	m.Observe("m", serve.ResultRejected, time.Millisecond) // counter only
	var sb strings.Builder
	m.WriteText(&sb, nil)
	out := sb.String()
	for _, want := range []string{
		`t2c_request_latency_seconds_count{model="m",result="ok"} 1`,
		`t2c_request_latency_seconds_count{model="m",result="expired"} 1`,
		`t2c_request_latency_seconds_count{model="m",result="error"} 1`,
		`t2c_request_latency_seconds_sum{model="m",result="expired"} 0.07`,
		`t2c_requests_total{model="m",result="rejected"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, fmt.Sprintf(`latency_seconds_count{model="m",result="rejected"}`)) {
		t.Fatal("rejected requests must not grow a latency histogram")
	}
}
