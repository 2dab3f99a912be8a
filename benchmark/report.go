package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// metricDef is one metric of the report: its value and, for the
// reader, what it was taken from.
type metricDef struct {
	name  string
	value float64
	unit  string
	note  string
}

// report turns what a run measured into the metrics BENCHMARK.json
// names. README.md defines each.
type report struct {
	w              workload
	rounds         []roundResult
	setups         []*setUp
	lt             layerTimes
	stats0, stats1 modelStats // before the first and after the last round
	attempted, ok  int        // requests of the rounds
}

func note(values []float64) string {
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, " %.4g", v)
	}
	return "[" + strings.TrimSpace(b.String()) + "]"
}

// overSetUps is a metric whose value is the median over the set-ups.
func (r report) overSetUps(name, unit string, f func(*setUp) float64) metricDef {
	v := make([]float64, len(r.setups))
	for i, s := range r.setups {
		v[i] = f(s)
	}
	return metricDef{name, median(v), unit, note(v)}
}

func (r report) endToEnd() []metricDef {
	win := windows(r.rounds)
	lat := latencies(win)
	rate := metricDef{"samples_per_s", samplesPerSecond(win), "samples/s", ""}
	if r.w.RateHz > 0 {
		rate = metricDef{"samples_per_s", scheduledPerSecond(r.rounds), "samples/s", "the schedule sets it"}
	}
	mem := r.stats1.Mem
	return []metricDef{
		rate,
		{"latency_p50_ms", ms(percentile(lat, 0.50)), "ms", fmt.Sprintf("of %d requests", len(lat))},
		{"latency_p95_ms", ms(percentile(lat, 0.95)), "ms", ""},
		{"cpu_ms_per_sample", cpuPerSample(win), "ms", ""},
		{"ok_share", float64(r.ok) / float64(max(r.attempted, 1)), "ratio", fmt.Sprintf("%d of %d requests", r.ok, r.attempted)},
		r.overSetUps("setup_s", "s", func(s *setUp) float64 { return s.total.Seconds() }),
		{"serving_mem_kb", float64(mem.ArenaBytes+mem.ScratchBytes) / 1024, "KiB", ""},
	}
}

// reference is what the reference slices found during the rounds: how
// slow the machine was, and how unsteady.
func (r report) reference() []metricDef {
	var factors, rawRates []float64
	for _, rr := range r.rounds {
		factors = append(factors, rr.Factor)
		spent := rr.RawBusy
		if r.w.RateHz > 0 {
			spent = rr.RawWall
		}
		rawRates = append(rawRates, float64(rr.Samples)/spent.Seconds())
	}
	best := slices.Max(rawRates)
	return []metricDef{
		{"bench.speed_factor", median(factors), "ratio", "per round " + note(factors)},
		{"bench.round_spread", (best - median(rawRates)) / best, "ratio", "raw samples/s per round " + note(rawRates)},
	}
}

func (r report) perLayer() []metricDef {
	lt, s0, s1 := r.lt, r.stats0, r.stats1
	p := lt.probe
	var samples, dropped int
	var mallocs, allocBytes uint64
	var gcPause time.Duration
	var lags []time.Duration
	for _, rr := range r.rounds {
		samples += rr.Samples
		dropped += rr.Dropped
		mallocs += rr.Mallocs
		allocBytes += rr.AllocBytes
		gcPause += rr.GCPause
		lags = append(lags, rr.RawLags...)
	}
	perSample := 1 / float64(max(samples, 1))
	lookups := float64(max(s1.Cache.Hits+s1.Cache.Misses-s0.Cache.Hits-s0.Cache.Misses, 1))
	batches := s1.Stats.Batches - s0.Stats.Batches
	p50 := ms(percentile(latencies(windows(r.rounds)), 0.5))
	phase := func(name string, f func(setupTimes) time.Duration) metricDef {
		return r.overSetUps(name, "ms", func(s *setUp) float64 { return ms(f(s.target.dep.times)) })
	}
	times := r.setups[len(r.setups)-1].target.dep.times
	return append([]metricDef{
		{"engine.execute_ms", p[pExecute], "ms", fmt.Sprintf("%d repetitions", lt.reps)},
		{"engine.server_self_ms", p[pServer] - p[pExecute], "ms", "P4 − P5"},
		{"engine.mean_batch", float64(s1.Stats.Requests-s0.Stats.Requests) / float64(max(batches, 1)), "samples", ""},
		{"engine.batches", float64(batches), "count", ""},
		{"engine.bind_ms", lt.bind, "ms", ""},
		{"engine.arena_kb", float64(s1.Mem.ArenaBytes) / 1024, "KiB", ""},
		{"engine.scratch_kb", float64(s1.Mem.ScratchBytes) / 1024, "KiB", ""},
		{"engine.parallel_fraction", s1.Mem.ParallelFraction, "ratio", ""},
		{"engine.skip_fraction", s1.Mem.SkipFraction, "ratio", ""},
		{"engine.instrs", float64(times.Instrs), "count", ""},
		{"export.decode_ms", p[pDecode], "ms", ""},
		phase("export.write_ms", func(t setupTimes) time.Duration { return t.Write }),
		phase("export.read_ms", func(t setupTimes) time.Duration { return t.Read }),
		{"export.ckpt_kb", float64(times.CkptBytes) / 1024, "KiB", ""},
		{"serve.predict_self_ms", lt.predictSelf, "ms", "P3 − P4 of the samples the cache missed"},
		{"serve.handler_self_ms", p[pHandler] - p[pDecode] - p[pRegistry], "ms", "P1 − P2 − P3"},
		{"serve.cache_hit_share", float64(s1.Cache.Hits-s0.Cache.Hits) / lookups, "ratio", ""},
		{"serve.cache_evictions", float64(s1.Cache.Evictions - s0.Cache.Evictions), "count", ""},
		{"serve.cache_suppressed", float64(s1.Cache.Suppressed - s0.Cache.Suppressed), "count", ""},
		{"serve.rejected", float64(s1.Stats.Rejected - s0.Stats.Rejected + s1.Shed - s0.Shed), "count", ""},
		{"serve.expired", float64(s1.Stats.Expired - s0.Stats.Expired), "count", ""},
		phase("serve.load_ms", func(t setupTimes) time.Duration { return t.Load }),
		r.overSetUps("serve.first_predict_ms", "ms", func(s *setUp) float64 { return ms(s.firstPredict) }),
		phase("core.build_calibrate_ms", func(t setupTimes) time.Duration { return t.BuildCalibrate }),
		phase("core.compile_ms", func(t setupTimes) time.Duration { return t.Compile }),
		{"http.transport_self_ms", p[pPost] - p[pHandler], "ms", "P0 − P1"},
		{"fuse.interp_ms", p[pInterp], "ms", ""},
		{"process.allocs_per_sample", float64(mallocs) * perSample, "count", ""},
		{"process.alloc_kb_per_sample", float64(allocBytes) / 1024 * perSample, "KiB", ""},
		{"process.gc_pause_ms", ms(gcPause) / float64(max(len(r.rounds), 1)), "ms", "per round"},
		{"loadgen.lag_p95_ms", ms(percentile(lags, 0.95)), "ms", "raw"},
		{"loadgen.dropped", float64(dropped), "count", ""},
		{"budget.residual_share", (p50 - p[pPost]) / p50, "ratio", fmt.Sprintf("rounds p50 %.4g ms, P0 %.4g ms", p50, p[pPost])},
	}, r.reference()...)
}
