package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// workload is one traffic mix. Request counts are fixed: a run measures
// a number of rounds, never a part of one.
type workload struct {
	Name  string
	Why   string // one line, the same as in BENCHMARK.json
	Model string
	Batch int // samples per request

	Requests int // per round

	// Open loop: RateHz > 0 sends on a Poisson schedule of RateHz
	// arrivals per second at reference speed (see loadgen.go), each request
	// with ?deadline_ms=DeadlineMS, at most MaxOutstanding in flight.
	RateHz         float64
	DeadlineMS     int
	MaxOutstanding int

	// Repeated inputs: ZipfS > 0 draws keys Zipf(ZipfS) from Universe.
	ZipfS    float64
	Universe int
}

// cacheCapacity is the default capacity of the serving cache, which the
// repeated-input workload is sized against.
const cacheCapacity = 1024

var workloads = []workload{
	{
		Name: "resnet20-single", Model: "resnet20", Batch: 1, Requests: 300,
		Why: "closed loop, 1 client, one unique sample per request: the engine executes for most of each request, so kernel, planner and prepack changes show and codec changes barely do",
	},
	{
		Name: "mobilenet-batch8", Model: "mobilenet", Batch: 8, Requests: 200,
		Why: "closed loop, 1 client, 8 unique samples per 260 KB request: JSON decode, fan-out and batch formation cost as much as the batch-8 depthwise kernels",
	},
	{
		Name: "resnet20-zipf", Model: "resnet20", Batch: 1, Requests: 1500, ZipfS: 1.1, Universe: 4096,
		Why: "closed loop, 1 client, keys Zipf(1.1) over 4096 inputs against the 1024-entry cache: p50 is the hit path that bypasses the engine, p95 the miss path, with evictions",
	},
	{
		Name: "vit-poisson", Model: "vit", Batch: 1, Requests: 240, RateHz: 80, DeadlineMS: 100, MaxOutstanding: 16,
		Why: "open loop, Poisson arrivals at 80 req/s, 100 ms deadline: the only concurrent arrivals, so queue wait, dynamic micro-batches, EDF and the transformer kernels show; the schedule sets its samples_per_s",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trafficStream seeds the arrival offsets and the popularity ranks. They
// are the shape of a workload, like its rate, and do not follow --seed:
// a p95 over 240 arrivals depends on the sample path more than on the
// code, and the runs of one comparison use different seeds. --seed
// decides what the requests contain.
const trafficStream = 20240715

// Keys are four base-16 digits.
const (
	keyDigits = 4
	keySpace  = 1 << (4 * keyDigits)
	digitLen  = len("0.0000")
)

// bodyTemplate is a predict body whose samples each start with keyDigits
// values that patch overwrites in place, at a fixed width.
type bodyTemplate struct {
	base    []byte
	offsets []int // of the first patched value of each sample
}

// newBodyTemplate builds the JSON body of a [batch,3,32,32] request
// (bare [3,32,32] at batch 1). Every sample has the same values, uniform
// in [0,1) and drawn from seed, so a sample is the same input to the
// model and its cache whatever request carries it, and only its key
// tells it from another.
func newBodyTemplate(seed int64, batch int) *bodyTemplate {
	per := 1
	for _, d := range sampleShape {
		per *= d
	}
	t := &bodyTemplate{}
	b := []byte(`{"shape":[`)
	if batch > 1 {
		b = strconv.AppendInt(b, int64(batch), 10)
		b = append(b, ',')
	}
	for i, d := range sampleShape {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	b = append(b, `],"data":[`...)
	for s := 0; s < batch; s++ {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < per; i++ {
			if s+i > 0 {
				b = append(b, ',')
			}
			v := r.Float32() // drawn for patched positions too, so the rest does not depend on keyDigits
			if i < keyDigits {
				if i == 0 {
					t.offsets = append(t.offsets, len(b))
				}
				b = append(b, "0.0000"...)
				continue
			}
			b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
		}
	}
	t.base = append(b, "]}"...)
	return t
}

// patch writes key into sample s of body, which is a copy of t.base:
// digit d of the key, most significant first, becomes the value d/16.
func (t *bodyTemplate) patch(body []byte, s int, key int) {
	off := t.offsets[s]
	for i := keyDigits - 1; i >= 0; i-- {
		d := key >> (4 * i) & 15
		p := off + (keyDigits-1-i)*(digitLen+1)
		copy(body[p:p+digitLen], sixteenths[d])
	}
}

// body returns a fresh body whose samples carry keys first, first+1, ….
func (t *bodyTemplate) body(first int) []byte {
	b := append([]byte(nil), t.base...)
	for s := range t.offsets {
		t.patch(b, s, first+s)
	}
	return b
}

var sixteenths = func() (out [16]string) {
	for d := range out {
		out[d] = fmt.Sprintf("%.4f", float64(d)/16)
	}
	return
}()

// poissonOffsets returns when each of n arrivals at rate per second is
// due, from the start of a round. The same offsets replay every round.
func poissonOffsets(n int, rate float64) []time.Duration {
	r := rand.New(rand.NewSource(trafficStream))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// zipfRanks returns the stream of popularity ranks in [0,universe),
// rank 0 the most popular.
func zipfRanks(s float64, universe int) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(trafficStream)), s, 1, uint64(universe-1))
	return func() int { return int(z.Uint64()) }
}

// rankKeys maps each rank to a key: a permutation of [0,universe) drawn
// from seed, so which inputs are popular follows --seed.
func rankKeys(seed int64, universe int) []int {
	return rand.New(rand.NewSource(seed)).Perm(universe)
}

// lruTail returns the distinct ranks an LRU cache of the given capacity
// holds after the ranks were looked up in order, least recent first.
func lruTail(ranks []int, capacity int) []int {
	last := map[int]int{}
	for i, r := range ranks {
		last[r] = i
	}
	out := make([]int, 0, len(last))
	for r := range last {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return last[out[i]] < last[out[j]] })
	if len(out) > capacity {
		out = out[len(out)-capacity:]
	}
	return out
}
