package serve_test

import (
	"testing"

	"torch2chip/internal/serve"
	"torch2chip/internal/tensor"
)

// predictOnce is predict that fails the test on error.
func predictOnce(t *testing.T, reg *serve.Registry, name string, x *tensor.Tensor) serve.PredictResult {
	t.Helper()
	res, err := predict(reg, name, x)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	return res
}

// cacheInfo fetches the single model's info snapshot.
func cacheInfo(t *testing.T, reg *serve.Registry) serve.ModelInfo {
	t.Helper()
	ms := reg.Models()
	if len(ms) != 1 {
		t.Fatalf("expected one model, got %d", len(ms))
	}
	return ms[0]
}

// TestPredictCacheHitBitIdentical: the second Predict of the same input
// must be served from the cache and be bit-identical both to the first
// response and to the interpreter oracle — the cache's core invariant.
func TestPredictCacheHitBitIdentical(t *testing.T) {
	ck, im := buildCheckpoint(t, 30)
	reg := serve.NewRegistry(serve.Options{CacheCapacity: 64})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(500)
	x := g.Uniform(0, 1, 1, 3, 8, 8)

	r1 := predictOnce(t, reg, "cnn", x)
	if r1.Cached {
		t.Fatal("first request of an input reported Cached")
	}
	assertSame(t, r1.Y, im.Forward(x), "cold predict vs interpreter")

	r2 := predictOnce(t, reg, "cnn", x)
	if !r2.Cached {
		t.Fatal("repeated request of an input was not served from the cache")
	}
	assertSame(t, r2.Y, r1.Y, "cache hit vs recompute")
	assertSame(t, r2.Y, im.Forward(x), "cache hit vs interpreter")

	cs := cacheInfo(t, reg).Cache
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit, 1 miss, 1 entry", cs)
	}

	// With the cache disabled the same repeat is recomputed every time.
	off := serve.NewRegistry(serve.Options{CacheCapacity: -1})
	defer off.Close()
	if _, err := off.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r := predictOnce(t, off, "cnn", x); r.Cached {
			t.Fatal("cache-disabled registry served a repeated input from the cache")
		}
	}
	if cs := cacheInfo(t, off).Cache; cs.Hits != 0 {
		t.Fatalf("cache-disabled stats = %+v, want 0 hits", cs)
	}
}

// TestPredictCacheReloadChangedWeights: a hot reload with different
// weights changes the program fingerprint, so cached entries of the old
// version must be unreachable and the replayed input recomputed against
// the new weights.
func TestPredictCacheReloadChangedWeights(t *testing.T) {
	ck1, _ := buildCheckpoint(t, 31)
	ck2, im2 := buildCheckpoint(t, 32)
	reg := serve.NewRegistry(serve.Options{CacheCapacity: 64})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck1, nil); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(501)
	x := g.Uniform(0, 1, 1, 3, 8, 8)
	predictOnce(t, reg, "cnn", x)
	fp1 := cacheInfo(t, reg).Fingerprint

	if _, err := reg.Load("cnn", ck2, nil); err != nil {
		t.Fatal(err)
	}
	fp2 := cacheInfo(t, reg).Fingerprint
	if fp1 == fp2 {
		t.Fatalf("fingerprint unchanged across a changed-weights reload: %s", fp1)
	}

	r := predictOnce(t, reg, "cnn", x)
	if r.Cached {
		t.Fatal("replay after a changed-weights reload was served from the cache")
	}
	if r.Version != 2 {
		t.Fatalf("replay served by version %d, want 2", r.Version)
	}
	assertSame(t, r.Y, im2.Forward(x), "post-reload predict vs new interpreter")
	if cs := cacheInfo(t, reg).Cache; cs.Entries != 1 {
		t.Fatalf("entries after flush+recompute = %d, want 1", cs.Entries)
	}
}

// TestPredictCacheReloadUnchangedWeights: reloading a bit-identical
// checkpoint keeps the fingerprint, so the warm cache must survive the
// version bump and keep answering hits.
func TestPredictCacheReloadUnchangedWeights(t *testing.T) {
	ck, _ := buildCheckpoint(t, 33)
	reg := serve.NewRegistry(serve.Options{CacheCapacity: 64})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(502)
	x := g.Uniform(0, 1, 1, 3, 8, 8)
	r1 := predictOnce(t, reg, "cnn", x)
	fp1 := cacheInfo(t, reg).Fingerprint

	info, err := reg.Load("cnn", ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("reload version = %d, want 2", info.Version)
	}
	if fp2 := cacheInfo(t, reg).Fingerprint; fp2 != fp1 {
		t.Fatalf("fingerprint changed across an unchanged-weights reload: %s vs %s", fp1, fp2)
	}

	r2 := predictOnce(t, reg, "cnn", x)
	if !r2.Cached {
		t.Fatal("warm entry was lost across an unchanged-weights reload")
	}
	assertSame(t, r2.Y, r1.Y, "preserved entry vs original response")
}

// TestPredictCacheEvictsLRU: with capacity 2, a third distinct input
// must evict the least-recently-used entry, and only that one.
func TestPredictCacheEvictsLRU(t *testing.T) {
	ck, _ := buildCheckpoint(t, 34)
	reg := serve.NewRegistry(serve.Options{CacheCapacity: 2})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(503)
	x1 := g.Uniform(0, 1, 1, 3, 8, 8)
	x2 := g.Uniform(0, 1, 1, 3, 8, 8)
	x3 := g.Uniform(0, 1, 1, 3, 8, 8)

	predictOnce(t, reg, "cnn", x1)
	predictOnce(t, reg, "cnn", x2)
	predictOnce(t, reg, "cnn", x3) // evicts x1
	cs := cacheInfo(t, reg).Cache
	if cs.Entries != 2 || cs.Evictions != 1 {
		t.Fatalf("cache stats after overflow = %+v, want 2 entries, 1 eviction", cs)
	}
	if r := predictOnce(t, reg, "cnn", x1); r.Cached {
		t.Fatal("evicted input was still served from the cache")
	}
	if r := predictOnce(t, reg, "cnn", x3); !r.Cached {
		t.Fatal("recently used entry was evicted instead of the LRU one")
	}
}

// TestPredictCacheAdmissionBacksOff: a trace that never repeats keeps
// the measured hit rate under the floor, so after the first full
// admission window inserts must be suppressed instead of churning the
// LRU with entries that will never hit.
func TestPredictCacheAdmissionBacksOff(t *testing.T) {
	ck, _ := buildCheckpoint(t, 35)
	reg := serve.NewRegistry(serve.Options{
		CacheCapacity: 64, CacheHitFloor: 0.9, CacheWindow: 4,
	})
	defer reg.Close()
	if _, err := reg.Load("cnn", ck, nil); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(504)
	const n = 8
	for i := 0; i < n; i++ {
		x := g.Uniform(0, 1, 1, 3, 8, 8)
		if r := predictOnce(t, reg, "cnn", x); r.Cached {
			t.Fatalf("distinct input %d reported Cached", i)
		}
	}
	cs := cacheInfo(t, reg).Cache
	if cs.Suppressed == 0 {
		t.Fatalf("cache stats = %+v, want suppressed inserts after a below-floor window", cs)
	}
	if int64(cs.Entries) >= cs.Misses {
		t.Fatalf("every miss was inserted (%d entries / %d misses): admission never backed off", cs.Entries, cs.Misses)
	}
}
