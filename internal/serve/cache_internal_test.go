package serve

import "testing"

// TestCacheHitReadRacesPut: a get caller reads the returned output codes
// outside the cache lock (the registry dequantizes them there) while
// another goroutine re-puts the same key, both with equal input codes
// (racing misses) and with different ones (a hash collision). A
// published entry must never be mutated, so the reader always sees the
// codes it was handed; run under -race to catch in-place overwrites.
func TestCacheHitReadRacesPut(t *testing.T) {
	const key = 42
	in, out := []int64{1, 2, 3}, []int64{7, 8, 9}
	collider, other := []int64{4, 5, 6}, []int64{-7, -8, -9}
	shape := []int{1, 3}
	c := newModelCache(4, 0, 0)
	c.put(key, in, out, shape)

	const rounds = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			c.put(key, in, out, shape)
			c.put(key, collider, other, shape)
			c.put(key, in, out, shape)
		}
	}()
	for i := 0; i < rounds && !t.Failed(); i++ {
		got, _, ok := c.get(key, in)
		if !ok {
			continue // the collider holds the slot right now
		}
		for j, v := range got {
			if v != out[j] {
				t.Errorf("round %d: hit returned code[%d] = %d, want %d", i, j, v, out[j])
			}
		}
	}
	<-done
	if got, _, ok := c.get(key, in); !ok || got[0] != out[0] {
		t.Fatalf("final get = %v, %v; want the last put's codes", got, ok)
	}
}
