package serve_test

// The serving side of the batching contract: a request's cache misses
// enter the model's queue as one group, so on an idle server they run as
// one batch; a group the queue cannot take is refused whole.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
)

// samples returns n distinct [1,3,8,8] inputs.
func samples(g *tensor.RNG, n int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = g.Uniform(0, 1, 1, 3, 8, 8)
	}
	return xs
}

// TestBatchContractHTTPPredictIsOneBatch: an HTTP predict of 8 unique
// samples on an idle server adds exactly one batch of 8.
func TestBatchContractHTTPPredictIsOneBatch(t *testing.T) {
	ck, _ := buildCheckpoint(t, 31)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	ts := httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	defer ts.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}

	const batch = 8
	g := tensor.NewRNG(1300)
	pb, err := predictBody([]int{batch, 3, 8, 8}, g.Uniform(0, 1, batch, 3, 8, 8).Data)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Models()[0].Stats
	if resp, body := postJSON(t, ts.URL+"/v1/models/cnn:predict", pb); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	after := reg.Models()[0].Stats
	if b, r := after.Batches-before.Batches, after.Requests-before.Requests; b != 1 || r != batch {
		t.Fatalf("predict of %d samples ran as %d batches over %d samples, want 1 batch of %d", batch, b, r, batch)
	}
}

// TestBatchContractOnlyMissesEnqueued: in a request mixing cache hits
// and misses, only the misses reach the engine, as one group, and every
// sample — hit or miss — comes back bit-identical in its own position.
func TestBatchContractOnlyMissesEnqueued(t *testing.T) {
	ck, im := buildCheckpoint(t, 32)
	reg := serve.NewRegistry(serve.Options{})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(1301)
	warm, fresh := samples(g, 3), samples(g, 2)
	if _, err := reg.PredictBatch("cnn", warm, time.Time{}, engine.PriNormal, 0); err != nil {
		t.Fatal(err)
	}

	xs := []*tensor.Tensor{warm[0], fresh[0], warm[1], fresh[1], warm[2]}
	before := reg.Models()[0].Stats
	res, err := reg.PredictBatch("cnn", xs, time.Time{}, engine.PriNormal, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Models()[0].Stats
	if b, r := after.Batches-before.Batches, after.Requests-before.Requests; b != 1 || r != 2 {
		t.Fatalf("3 hits + 2 misses ran as %d batches over %d samples, want 1 batch of 2", b, r)
	}
	for i, x := range xs {
		if wantHit := i%2 == 0; res[i].Cached != wantHit {
			t.Fatalf("sample %d cached = %v, want %v", i, res[i].Cached, wantHit)
		}
		assertSame(t, res[i].Y, im.Forward(x), "mixed hit/miss request")
	}
}

// TestBatchContractGroupRefusedWhole holds the worker and fills the
// queue to one free slot: a group of two is refused whole with
// ErrQueueFull, leaves the queue as it was, counts exactly its own two
// samples as rejected, and the next group that fits is admitted and
// served.
func TestBatchContractGroupRefusedWhole(t *testing.T) {
	ck, _ := buildCheckpoint(t, 34)
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := serve.NewRegistry(serve.Options{
		CacheCapacity: -1,
		Engine:        engine.ServerOptions{Workers: 1, MaxBatch: 1, QueueSize: 3, Kernels: blockingKernels(gate, release)},
	})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer wg.Wait()
	defer unblock()

	g := tensor.NewRNG(1303)
	fire := func(n int) {
		xs := samples(g, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.PredictBatch("cnn", xs, time.Time{}, engine.PriNormal, 0); err != nil {
				t.Errorf("admitted group of %d failed: %v", n, err)
			}
		}()
	}
	fire(1) // the worker
	<-gate
	fire(3) // the batcher's hand (MaxBatch 1) + 2 of 3 queue slots
	waitDepth(t, reg, 2)

	before := reg.Models()[0].Stats.Rejected
	if _, err := reg.PredictBatch("cnn", samples(g, 2), time.Time{}, engine.PriNormal, 0); !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("group of 2 meeting 1 free slot returned %v, want ErrQueueFull", err)
	}
	if d := reg.Models()[0].QueueDepth; d != 2 {
		t.Fatalf("queue depth %d after a refused group, want 2 (unchanged)", d)
	}
	if r := reg.Models()[0].Stats.Rejected - before; r != 2 {
		t.Fatalf("refused group counted %d rejections, want 2 (its own samples)", r)
	}
	fire(1) // fits the last slot
	waitDepth(t, reg, 3)
	unblock()
	wg.Wait()
	if st := reg.Models()[0].Stats; st.Requests != 5 {
		t.Fatalf("served %d samples, want 5", st.Requests)
	}
}
