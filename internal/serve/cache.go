package serve

// Content-addressed inference cache. The key is an FNV-1a hash of the
// serving program's content fingerprint plus the request's quantized
// input codes; the value is the output codes the engine produced for
// them. Because the engine is bit-exact — identical input codes through
// an identical program always yield identical output codes — a hit is
// provably identical to recompute, not approximately so. Hash collisions
// cannot break that claim: every hit additionally compares the stored
// input codes word for word before answering. A hot reload that changes
// any weight changes the program fingerprint and therefore every key,
// so stale entries become unreachable naturally (and the registry
// flushes them eagerly to free memory); a reload that changes nothing
// keeps the fingerprint and the warm cache with it.

import (
	"container/list"
	"sync"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// cacheKey hashes a program fingerprint and a sample's input codes.
func cacheKey(fp uint64, codes []int64) uint64 {
	h := fnvOffset ^ fp
	h *= fnvPrime
	for _, c := range codes {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// CacheStats is a point-in-time snapshot of one model's cache counters.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Suppressed counts inserts skipped while hit-rate admission had
	// caching backed off (lookups below the floor over a full window).
	Suppressed int64 `json:"suppressed"`
	// HitRate is Hits/(Hits+Misses) over the cache's lifetime.
	HitRate float64 `json:"hit_rate"`
}

type cacheEntry struct {
	key   uint64
	in    []int64 // full input codes: collision guard for bit-exact hits
	out   []int64
	shape []int
}

// modelCache is one model's LRU inference cache with hit-rate-driven
// admission: lookups are always served, but when a full admission
// window observes a hit rate below the floor, inserts are suppressed
// for an exponentially growing number of windows (capped) before a
// probe window re-measures. Models whose traffic never repeats settle
// into near-zero caching overhead instead of churning entries.
type modelCache struct {
	mu       sync.Mutex
	capacity int
	floor    float64
	window   int64

	lru     *list.List // front = most recent; values are *cacheEntry
	byKey   map[uint64]*list.Element
	hits    int64
	misses  int64
	evicted int64
	suppr   int64

	// Admission-window state: lookups/hits within the current window,
	// remaining windows to skip, and the current backoff width.
	winLookups int64
	winHits    int64
	skipWins   int64
	backoff    int64
}

// newModelCache returns a cache with the given capacity (entries), or
// nil when capacity <= 0 — callers treat a nil cache as disabled.
func newModelCache(capacity int, floor float64, window int64) *modelCache {
	if capacity <= 0 {
		return nil
	}
	if window <= 0 {
		window = 512
	}
	return &modelCache{
		capacity: capacity,
		floor:    floor,
		window:   window,
		lru:      list.New(),
		byKey:    map[uint64]*list.Element{},
	}
}

// get looks up the output codes for (key, in). The stored input codes
// must match exactly — a key collision counts as a miss. The returned
// slices are the cache's own (callers only read them; the output is
// dequantized into a fresh tensor).
func (c *modelCache) get(key uint64, in []int64) (out []int64, shape []int, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windowTick()
	if el, found := c.byKey[key]; found {
		e := el.Value.(*cacheEntry)
		if codesEqual(e.in, in) {
			c.lru.MoveToFront(el)
			c.hits++
			c.winHits++
			return e.out, e.shape, true
		}
	}
	c.misses++
	return nil, nil, false
}

// put inserts output codes for (key, in), copying all slices. Inserts
// are dropped while admission has caching suppressed. A published entry
// is never mutated — get callers read its slices outside the lock.
func (c *modelCache) put(key uint64, in, out []int64, shape []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.skipWins > 0 {
		c.suppr++
		return
	}
	e := &cacheEntry{
		key:   key,
		in:    append([]int64(nil), in...),
		out:   append([]int64(nil), out...),
		shape: append([]int(nil), shape...),
	}
	if el, found := c.byKey[key]; found {
		// Same key already cached. Racing misses on equal input codes
		// computed bit-identical outputs, so only refresh recency; a hash
		// collision swaps in the fresh entry.
		c.lru.MoveToFront(el)
		if !codesEqual(el.Value.(*cacheEntry).in, in) {
			el.Value = e
		}
		return
	}
	for c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.lru.Remove(back)
		c.evicted++
	}
	c.byKey[key] = c.lru.PushFront(e)
}

// windowTick advances the admission window (callers hold mu). A window
// is one `window` lookups; a completed window below the hit-rate floor
// doubles the backoff (capped at 8 windows) and suppresses inserts for
// that many windows, after which one probe window measures again. A
// window at or above the floor resets the backoff.
func (c *modelCache) windowTick() {
	c.winLookups++
	if c.winLookups < c.window {
		return
	}
	rate := float64(c.winHits) / float64(c.winLookups)
	c.winLookups, c.winHits = 0, 0
	if c.skipWins > 0 {
		// Counting lookups during a suppressed window; rate is whatever
		// earlier entries still serve. Burn one skip window.
		c.skipWins--
		return
	}
	if c.floor > 0 && rate < c.floor {
		if c.backoff < 1 {
			c.backoff = 1
		} else if c.backoff < 8 {
			c.backoff *= 2
		}
		c.skipWins = c.backoff
		return
	}
	c.backoff = 0
}

// flush drops every entry (hot reload with a changed fingerprint) and
// resets admission so the new version gets a fresh probe.
func (c *modelCache) flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.byKey = map[uint64]*list.Element{}
	c.winLookups, c.winHits, c.skipWins, c.backoff = 0, 0, 0, 0
}

// stats snapshots the counters (nil-safe: a disabled cache reports a
// zero capacity).
func (c *modelCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Capacity:   c.capacity,
		Entries:    c.lru.Len(),
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evicted,
		Suppressed: c.suppr,
	}
	if n := s.Hits + s.Misses; n > 0 {
		s.HitRate = float64(s.Hits) / float64(n)
	}
	return s
}

func codesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
