package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int, 200)
	for i := range v {
		v[i] = 200 - i // 1..200, unsorted
	}
	if got := percentile(v, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %d, want 190: ten values lie beyond it", got)
	}
	if got := percentile(v, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %d, want 100", got)
	}
	if got := percentile(v, 1); got != 200 {
		t.Errorf("p100 of 1..200 = %d, want 200", got)
	}
	if got := percentile([]time.Duration{7}, 0.95); got != 7 {
		t.Errorf("p95 of one value = %d, want it", got)
	}
	if got := percentile([]float64(nil), 0.5); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	if v[0] != 200 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestPooledEstimators(t *testing.T) {
	rounds := []roundResult{
		{RefWall: 3 * time.Second, Samples: 200, Windows: []window{
			{Wall: time.Second, CPU: 400 * time.Millisecond, Samples: 100, Latencies: []time.Duration{3e6}},
			{Wall: time.Second, CPU: 600 * time.Millisecond, Samples: 100, Latencies: []time.Duration{1e6}},
		}},
		{RefWall: 3 * time.Second, Samples: 100, Windows: []window{
			{Wall: time.Second, CPU: 2 * time.Second, Samples: 100, Latencies: []time.Duration{2e6}},
		}},
	}
	win := windows(rounds)
	if got := samplesPerSecond(win); got != 100 {
		t.Errorf("closed loop: %g samples/s, want 300 samples over 3 s of windows", got)
	}
	if got := scheduledPerSecond(rounds); got != 50 {
		t.Errorf("open loop: %g samples/s, want 300 samples over 6 s on the reference clock", got)
	}
	if got := cpuPerSample(win); got != 10 {
		t.Errorf("cpu per sample = %g ms, want 3 s over 300 samples", got)
	}
	if got := ms(percentile(latencies(win), 0.5)); got != 2 {
		t.Errorf("pooled p50 = %g ms, want 2", got)
	}
}
