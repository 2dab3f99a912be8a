// Command benchmark is the repository's benchmark: it takes a model
// through Prepare → Calibrate → Compile → export, serves the exported
// checkpoint over HTTP on loopback, sends one of four workloads at it,
// checks every output against the interpreter and prints the metrics
// BENCHMARK.json names. README.md in this directory defines them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type config struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	rounds   int // 0: from seconds
	sizes    sizes
	out      io.Writer // the report; the result line goes to stdout
}

// sizes are the counts of a run that are not part of a workload.
type sizes struct {
	setUps         int // per run; setup_s is their median
	warmRequests   int // per set-up, the first included
	verifySamples  int // before the first round, and as many others after the last
	prefill        int // lookups of the repeated-input workload the cache has seen before the first round
	layerRequests  int // per probe and repetition of the layer pass
	interpRequests int // of those, through the interpreter
	layerMinReps   int
	layerMaxReps   int
	requestShare   int // a round has 1/requestShare of the workload's requests
	slack          int // arrivals are slack times as far apart and deadlines slack times as long
}

var (
	fullSizes = sizes{
		setUps: 5, warmRequests: 50, verifySamples: 16, prefill: 8000,
		layerRequests: 64, interpRequests: 8, layerMinReps: 2, layerMaxReps: 5, requestShare: 1, slack: 1,
	}
	// smokeSizes check that the benchmark works, and measure nothing. No
	// request of theirs may fail on a machine that runs other tests, or
	// the race detector, at the same time.
	smokeSizes = sizes{
		setUps: 1, warmRequests: 2, verifySamples: 2, prefill: 64,
		layerRequests: 4, interpRequests: 2, layerMinReps: 1, layerMaxReps: 1, requestShare: 20, slack: 4,
	}
)

// minRounds is how many rounds a run measures however slow the machine.
const minRounds = 3

// bucketAttempts is how often the warm-up tries to have a request of n
// samples run as one batch before it gives up.
const bucketAttempts = 20

func main() {
	var cfg config
	name := flag.String("workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request contents")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the rounds of a run measure")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics and write the trace; 0: print the end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where --trace 1 writes Chrome trace JSON (default .bench_build/trace-<workload>.json)")
	flag.IntVar(&cfg.rounds, "rounds", 0, "rounds to measure (default: as many as --seconds holds)")
	smoke := flag.Bool("smoke", false, "a twentieth of the requests and one set-up: checks the benchmark, measures nothing")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.out = os.Stdout
	cfg.sizes = fullSizes
	if *smoke {
		cfg.sizes = smokeSizes
	}

	// Everything runs on one thread. The runner's second vCPU is at times
	// time-sliced with the first, and then a program that keeps two
	// threads busy measures a different machine (see README.md).
	runtime.GOMAXPROCS(1)

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	printMachine(cfg)
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		defs := res.endToEnd
		if cfg.trace {
			defs = res.perLayer
		}
		for _, d := range defs {
			name := d.name
			if len(todo) > 1 {
				name = w.Name + "." + name
			}
			total.Metrics[name] = metricValue{d.value, d.unit}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !total.Correct {
		os.Exit(1)
	}
}

// result is the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is what one workload's run found and measured.
type workloadResult struct {
	Correct           bool
	Attempted, Failed int
	endToEnd          []metricDef
	perLayer          []metricDef // of a traced run
}

// printMachine prints what the numbers of this run were measured on.
func printMachine(cfg config) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("BENCH_COMMIT") // run.sh sets it; a checkout without .git has none
	if commit == "" {
		commit = "unknown"
	}
	perRound := map[string]int{}
	for _, w := range workloads {
		perRound[w.Name] = w.Requests / cfg.sizes.requestShare
	}
	// A map of strings and numbers always marshals.
	m, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "commit": commit, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "set_ups": cfg.sizes.setUps, "requests_per_round": perRound,
		"reference_slice_us": refNominal.Microseconds(),
	})
	fmt.Fprintf(cfg.out, "machine %s\n", m)
}

// keySource hands out the key of each next sample.
type keySource struct {
	next  int        // next unused unique key
	ranks func() int // repeated inputs: draws the next popularity rank
	keys  []int      // rank → key
}

// unique returns a key no other sample of the run has.
func (k *keySource) unique() int {
	k.next++
	return k.next - 1
}

// traffic returns the key of the workload's next sample.
func (k *keySource) traffic() int {
	if k.keys == nil {
		return k.unique()
	}
	return k.keys[k.ranks()]
}

func newKeySource(w workload, seed int64) *keySource {
	if w.ZipfS == 0 {
		return &keySource{}
	}
	return &keySource{
		next:  w.Universe, // unique keys lie beyond the universe
		ranks: zipfRanks(w.ZipfS, w.Universe),
		keys:  rankKeys(seed, w.Universe),
	}
}

// setUp is one deployment served and warmed. Its times, and those of
// its deployment's phases, are at reference speed.
type setUp struct {
	target *target
	total  time.Duration // deploy and warm-up
	// firstPredict is the first request after Registry.Load, which binds
	// the worker's first executor.
	firstPredict time.Duration
}

// newSetUp deploys w's model, serves it and warms it up, with a
// reference slice after every phase of deploy and every warm-up request.
func newSetUp(w workload, sz sizes, tmpls map[int]*bodyTemplate, keys *keySource, sp *speedometer) (*setUp, error) {
	at := sp.tick() // the window of the phase at hand
	dep, err := deploy(w.Model, func(phase *time.Duration) {
		after := sp.tick()
		*phase = scaled(*phase, sp.scale(at))
		at = after
	})
	if err != nil {
		return nil, err
	}
	t, err := serveOnLoopback(dep)
	if err != nil {
		dep.close()
		return nil, err
	}
	warm, err := warmUp(t, w, sz, tmpls, keys, sp)
	if err != nil {
		t.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	su := &setUp{target: t, total: dep.times.total(), firstPredict: warm[0]}
	for _, d := range warm {
		su.total += d
	}
	return su, nil
}

// warmUp sends one first request, then a request of 8, 4, 2 and 1
// samples that each ran as one batch, so that the worker has bound an
// executor for every batch bucket and serving memory does not depend on
// which partial batches the run happens to form, then the rest of
// sz.warmRequests requests of the workload's shape. It returns how long
// each request took, at reference speed.
func warmUp(t *target, w workload, sz sizes, tmpls map[int]*bodyTemplate, keys *keySource, sp *speedometer) ([]time.Duration, error) {
	url := t.predictURL(w)
	var resp bytes.Buffer
	var sent []time.Duration
	// send posts a request of batch samples and reports whether it ran
	// as one batch.
	send := func(batch int) (bool, error) {
		body := append([]byte(nil), tmpls[batch].base...)
		for s := 0; s < batch; s++ {
			tmpls[batch].patch(body, s, keys.unique())
		}
		before, err := t.stats()
		if err != nil {
			return false, err
		}
		at := sp.tick()
		t0 := time.Now()
		status, _, err := t.post(url, body, &resp)
		if err == nil {
			_, err = parseReply(status, resp.Bytes(), batch)
		}
		if err != nil {
			return false, err
		}
		raw := time.Since(t0)
		sp.tick()
		sent = append(sent, scaled(raw, sp.scale(at)))
		after, err := t.stats()
		return after.Stats.Batches-before.Stats.Batches == 1 &&
			after.Stats.Requests-before.Stats.Requests == int64(batch), err
	}
	if _, err := send(w.Batch); err != nil {
		return nil, err
	}
	for _, n := range []int{8, 4, 2, 1} {
		formed := false
		for try := 0; try < bucketAttempts && !formed; try++ {
			var err error
			if formed, err = send(n); err != nil {
				return nil, err
			}
		}
		if !formed {
			return nil, fmt.Errorf("no request of %d samples ran as one batch in %d attempts", n, bucketAttempts)
		}
	}
	for i := 1; i < sz.warmRequests; i++ {
		if _, err := send(w.Batch); err != nil {
			return nil, err
		}
	}
	return sent, nil
}

// verification is a request whose samples' logits the oracle computed.
type verification struct {
	body []byte
	want [][]float32
}

func newVerifications(dep *deployment, w workload, sz sizes, tmpl *bodyTemplate, keys *keySource) ([]verification, error) {
	out := make([]verification, max(sz.verifySamples/w.Batch, 1))
	for i := range out {
		body := append([]byte(nil), tmpl.base...)
		for s := 0; s < w.Batch; s++ {
			tmpl.patch(body, s, keys.unique())
		}
		want, err := dep.oracleLogits(body)
		if err != nil {
			return nil, err
		}
		out[i] = verification{body, want}
	}
	return out, nil
}

// verify sends each verification request and compares every logit bit
// for bit with the oracle's. On the repeated-input workload it sends
// each twice, so that a miss and a hit are both checked. It returns the
// requests sent and the mismatches found.
func verify(t *target, w workload, vs []verification) (sent, bad int, err error) {
	url := t.predictURL(w)
	var resp bytes.Buffer
	sends := 1
	if w.ZipfS > 0 {
		sends = 2
	}
	for _, v := range vs {
		for n := 0; n < sends; n++ {
			status, _, err := t.post(url, v.body, &resp)
			if err != nil {
				return sent, bad, err
			}
			sent++
			rep, err := parseReply(status, resp.Bytes(), w.Batch)
			if err != nil {
				bad++
				continue
			}
			for i, p := range rep.Predictions {
				// A unique input never comes from the cache; a repeated
				// one does the second time.
				if p.Cached != (n == 1) {
					bad++
				}
				for j, got := range p.Logits {
					if math.Float32bits(got) != math.Float32bits(v.want[i][j]) {
						bad++
					}
				}
			}
		}
	}
	return sent, bad, nil
}

// prefill brings the cache to the state it is in after the first
// sz.prefill lookups of the repeated-input workload, at an eighth of
// their cost: it works out which keys an LRU cache holds by then and
// sends those, least recent first, eight to a request.
func prefill(t *target, w workload, sz sizes, tmpl8 *bodyTemplate, keys *keySource) error {
	seen := make([]int, sz.prefill)
	for i := range seen {
		seen[i] = keys.ranks()
	}
	tail := lruTail(seen, cacheCapacity)
	url := t.predictURL(w)
	var resp bytes.Buffer
	body := append([]byte(nil), tmpl8.base...)
	for len(tail) > 0 {
		n := min(len(tail), 8)
		for s := 0; s < 8; s++ {
			tmpl8.patch(body, s, keys.keys[tail[min(s, n-1)]])
		}
		tail = tail[n:]
		// Sent twice: the cache stops admitting inserts after 512 lookups
		// in a row without hits, which the second send provides.
		for range 2 {
			status, _, err := t.post(url, body, &resp)
			if err == nil {
				_, err = parseReply(status, resp.Bytes(), 8)
			}
			if err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
		}
	}
	return nil
}

func runWorkload(w workload, cfg config) (*workloadResult, error) {
	sz := cfg.sizes
	w.Requests /= sz.requestShare
	w.RateHz /= float64(sz.slack)
	w.DeadlineMS *= sz.slack
	measure := cfg.seconds
	if cfg.trace {
		measure /= 2 // the layer pass measures for the other half
	}
	keys := newKeySource(w, cfg.seed)
	tmpls := map[int]*bodyTemplate{}
	for _, n := range []int{1, 2, 4, 8} {
		tmpls[n] = newBodyTemplate(cfg.seed, n)
	}
	tmpl := tmpls[w.Batch]
	// Room for the slices of a run, so that recording one allocates
	// nothing in a round: an idle open loop runs 5000 a second.
	sp := &speedometer{slices: make([]refSlice, 0, 1<<17)}

	// Set up several times: one set-up takes a fraction of a second, so
	// a single one would mostly measure the machine's mood.
	var setups []*setUp
	for i := 0; i < sz.setUps; i++ {
		if i > 0 {
			setups[i-1].target.close()
		}
		su, err := newSetUp(w, sz, tmpls, keys, sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, su)
	}
	t := setups[len(setups)-1].target
	defer t.close()

	// Every digit in every position: if these keys are distinct inputs
	// to the cache, all keys are.
	probe := [][]byte{tmpls[1].body(0)}
	for pos := 0; pos < keyDigits; pos++ {
		for d := 1; d < 16; d++ {
			probe = append(probe, tmpls[1].body(d<<(4*pos)))
		}
	}
	if err := t.dep.checkDistinct(probe); err != nil {
		return nil, err
	}
	before, err := newVerifications(t.dep, w, sz, tmpl, keys)
	if err != nil {
		return nil, err
	}
	after, err := newVerifications(t.dep, w, sz, tmpl, keys)
	if err != nil {
		return nil, err
	}

	var spans *spanLog
	if cfg.trace {
		spans = &spanLog{}
	}
	res := &workloadResult{}
	sent, bad, err := verify(t, w, before)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = sent, bad
	if w.ZipfS > 0 {
		if err := prefill(t, w, sz, tmpls[8], keys); err != nil {
			return nil, err
		}
	}
	stats0, err := t.stats()
	if err != nil {
		return nil, err
	}
	var rr []roundResult
	start := time.Now()
	// Work is count-based: a run measures whole rounds, as many as begin
	// within its time and at least minRounds.
	for i := 0; i < cfg.rounds || cfg.rounds == 0 && (i < minRounds || time.Since(start).Seconds() < measure); i++ {
		round := spans.open(fmt.Sprintf("round %d %s", i, w.Name), -1)
		rr = append(rr, t.runRound(w, tmpl, keys.traffic, sp, spans, round))
		spans.end(round)
	}
	stats1, err := t.stats()
	if err != nil {
		return nil, err
	}
	sent, badAfter, err := verify(t, w, after)
	if err != nil {
		return nil, err
	}
	bad += badAfter
	res.Attempted += sent
	res.Failed += badAfter

	var attempted, ok, cached int
	var firstErr error
	for _, r := range rr {
		attempted += r.Attempted
		ok += r.OK
		cached += r.Cached
		if firstErr == nil {
			firstErr = r.FirstErr
		}
	}
	res.Attempted += attempted
	res.Failed += attempted - ok
	if firstErr != nil {
		fmt.Fprintf(cfg.out, "%s: %d of %d requests failed, the first: %v\n", w.Name, attempted-ok, attempted, firstErr)
	}

	var lt layerTimes
	if cfg.trace {
		budget := time.Duration(measure * float64(time.Second))
		if lt, err = layerPass(t, w, sz, tmpl, keys.traffic, sp, spans, budget); err != nil {
			return nil, err
		}
		cached += lt.cached
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+w.Name+".json")
		}
		if err := spans.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "%s: %d spans in %s\n", w.Name, len(spans.spans), path)
	}
	if keys.next > keySpace {
		return nil, fmt.Errorf("%d keys used, the key space has %d", keys.next, keySpace)
	}
	res.Correct = bad == 0 && (w.ZipfS > 0 || cached == 0)
	if !res.Correct {
		fmt.Fprintf(cfg.out, "%s: INCORRECT: %d verification mismatches, %d samples answered by the cache\n", w.Name, bad, cached)
	}

	rep := report{w: w, rounds: rr, setups: setups, lt: lt, stats0: stats0, stats1: stats1, attempted: attempted, ok: ok}
	res.endToEnd = rep.endToEnd()
	if cfg.trace {
		res.perLayer = rep.perLayer()
	}
	fmt.Fprintf(cfg.out, "%s: %d rounds of %d requests, %d verification mismatches\n", w.Name, len(rr), w.Requests, bad)
	shown := append(slices.Clone(res.endToEnd), res.perLayer...)
	if !cfg.trace {
		// Not metrics of an untraced run, but what its times rest on.
		shown = append(shown, rep.reference()...)
	}
	for _, d := range shown {
		fmt.Fprintf(cfg.out, "  %-28s %14.6g %-10s %s\n", d.name, d.value, d.unit, d.note)
	}
	return res, nil
}
