package main

import (
	"math"
	"testing"
	"time"
)

// sliceAt returns a slice that took dur and whose clocks read wall and cpu,
// in ms, on entering it; it takes no time itself.
func sliceAt(dur time.Duration, wall, cpu int) refSlice {
	t := time.Unix(1000, 0).Add(time.Duration(wall) * time.Millisecond)
	c := time.Duration(cpu) * time.Millisecond
	return refSlice{dur: dur, in: t, out: t, cpuIn: c, cpuOut: c}
}

func TestWindowScale(t *testing.T) {
	// Three windows of 10 ms: all busy at reference speed, all busy at
	// half speed, and 4 ms busy at half speed beside 6 ms idle.
	sp := speedometer{slices: []refSlice{
		sliceAt(refNominal, 0, 0), sliceAt(refNominal, 10, 10),
		sliceAt(3*refNominal, 20, 20), sliceAt(refNominal, 30, 24),
	}}
	for w, want := range []struct{ factor, scale float64 }{{1, 1}, {2, 0.5}, {2, 0.8}} {
		if got := sp.factor(w); got != want.factor {
			t.Errorf("window %d: factor %g, want %g", w, got, want.factor)
		}
		if got := sp.scale(w); math.Abs(got-want.scale) > 1e-12 {
			t.Errorf("window %d: scale %g, want %g", w, got, want.scale)
		}
	}
	if got := sp.meanFactor(0, 4); got != 1.5 {
		t.Errorf("mean factor %g, want 1.5", got)
	}
	// CPU time above the wall time, as another thread of the process can
	// cause, leaves no idle time.
	if got := scaleOf(10*time.Millisecond, 11*time.Millisecond, 2); got != 0.5 {
		t.Errorf("scale with more CPU than wall time = %g, want 0.5", got)
	}
	if got := scaled(8*time.Millisecond, 0.5); got != 4*time.Millisecond {
		t.Errorf("8 ms scaled by a half = %v", got)
	}
}

func TestTickRecords(t *testing.T) {
	var sp speedometer
	for i := range 3 {
		if got := sp.tick(); got != i {
			t.Fatalf("tick %d returned %d", i, got)
		}
	}
	for i, s := range sp.slices {
		if s.dur <= 0 || s.out.Sub(s.in) < s.dur || s.cpuOut < s.cpuIn {
			t.Errorf("slice %d: %+v", i, s)
		}
		if i > 0 && s.in.Before(sp.slices[i-1].out) {
			t.Error("slices out of order")
		}
	}
	if wall, cpu := sp.gap(0); wall < 0 || cpu < 0 {
		t.Errorf("window 0: %v of wall, %v of CPU time", wall, cpu)
	}
}
