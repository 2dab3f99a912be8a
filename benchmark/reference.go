package main

import (
	"strconv"
	"syscall"
	"time"
)

// The runner this benchmark is sized on is a shared 2-vCPU machine. For
// minutes at a time something else uses the core: in bursts of a few to
// a hundred milliseconds code runs at about half speed, and beside that
// the whole machine shifts between speeds a tenth apart, within a
// millisecond or for minutes (README.md has the study). No statistic of
// raw times survives that, so the benchmark measures against a
// reference: a fixed piece of work it owns, a slice, run on the load
// generator's goroutine before and after each thing it measures.
//
// The time between two consecutive slices is a window, and its speed
// factor is how much longer than refNominal the two slices took. The
// processor time the process used in a window is divided by the factor;
// the rest of the window, in which the thread waited for a timer or for
// the network, is not. That gives the window's length at reference
// speed, and every time measured inside the window is scaled as the
// window is.
//
// The slice is not independent of the program. It runs on the same
// thread and shares the core's caches and predictors with it, so it is
// small enough to stay in the first-level cache and loads its data
// again before the timed part. A program changed to write 4 MB at the
// end of every request still slowed the slice by 1.4 %, and so deflated
// its own times by as much (README.md). And it is one mix of instructions:
// code that a busy sibling hyperthread slows more or less than the
// slice is over- or under-corrected by a part of the disturbance. The
// run prints its speed factors beside the metrics, so a reader can see
// what the reference did to them.

// refNominal is how long one slice takes on the sizing runner when
// nothing disturbs it. It only sets the scale: at reference speed the
// reported times are what an undisturbed run on that runner measures.
const refNominal = 150 * time.Microsecond

var (
	refA, refB = func() (a, b []int8) {
		a, b = make([]int8, 4<<10), make([]int8, 4<<10)
		for i := range a {
			a[i], b[i] = int8(i), int8(i*7)
		}
		return
	}()
	refText = func() []string {
		out := make([]string, 256)
		for i := range out {
			out[i] = strconv.FormatFloat(float64(i)/256, 'g', -1, 32)
		}
		return out
	}()
	refSink uint64 // keeps the compiler from dropping the work
)

// refLoad touches every cache line of the slice's data, so that the
// timed work starts from the same caches whatever ran before it.
func refLoad() {
	var acc int8
	for i := 0; i < len(refA); i += 64 {
		acc += refA[i] + refB[i]
	}
	for _, t := range refText {
		acc += int8(t[0])
	}
	refSink += uint64(acc)
}

// refWork is one slice: integer multiply-accumulate over 8 KB, as the
// engine's kernels do, then float parsing, as the request decoder does.
// Those are the two kinds of code a predict request spends its time in,
// and a busy sibling hyperthread slows them by different amounts.
func refWork() {
	var acc int32
	for range 32 {
		for i := range refA {
			acc += int32(refA[i]) * int32(refB[i])
		}
	}
	var sum float64
	for range 4 {
		for _, t := range refText {
			v, _ := strconv.ParseFloat(t, 32) // refText parses: the error is always nil
			sum += v
		}
	}
	refSink += uint64(acc) + uint64(sum)
}

// cpuTime is the user and system time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refSlice is one slice: how long its timed work took, and the wall and
// process CPU clocks on entering and leaving it, which bound the windows
// on either side.
type refSlice struct {
	dur           time.Duration
	in, out       time.Time
	cpuIn, cpuOut time.Duration
}

// speedometer records slices. Only the load generator's goroutine uses
// it.
type speedometer struct {
	slices []refSlice
}

// tick runs one slice and returns its index, which is also the index of
// the window that follows it.
func (s *speedometer) tick() int {
	sl := refSlice{in: time.Now(), cpuIn: cpuTime()}
	refLoad()
	t0 := time.Now()
	refWork()
	sl.dur = time.Since(t0)
	sl.cpuOut, sl.out = cpuTime(), time.Now()
	s.slices = append(s.slices, sl)
	return len(s.slices) - 1
}

// factor returns the speed factor of window w, between slices w and
// w+1: how much slower than reference speed the two ran.
func (s *speedometer) factor(w int) float64 {
	return float64(s.slices[w].dur+s.slices[w+1].dur) / float64(2*refNominal)
}

// gap returns the wall and the process CPU time of window w.
func (s *speedometer) gap(w int) (wall, cpu time.Duration) {
	a, b := s.slices[w], s.slices[w+1]
	return b.in.Sub(a.out), b.cpuIn - a.cpuOut
}

// scale returns what a time measured inside window w is multiplied by
// to have it at reference speed.
func (s *speedometer) scale(w int) float64 {
	wall, cpu := s.gap(w)
	return scaleOf(wall, cpu, s.factor(w))
}

// scaleOf is scale for a stretch of raw wall and CPU time at speed
// factor f: the CPU time shrinks by f, the idle time stays. Other
// threads of the process can make the CPU time exceed the wall time by
// a little; the stretch then had no idle time.
func scaleOf(wall, cpu time.Duration, f float64) float64 {
	if wall <= 0 {
		return 1
	}
	busy := float64(min(cpu, wall))
	return (float64(wall) - busy + busy/f) / float64(wall)
}

// meanFactor returns the mean speed factor of slices[from:to].
func (s *speedometer) meanFactor(from, to int) float64 {
	var sum time.Duration
	for _, sl := range s.slices[from:to] {
		sum += sl.dur
	}
	return float64(sum) / float64(to-from) / float64(refNominal)
}

// scaled returns d times k.
func scaled(d time.Duration, k float64) time.Duration { return time.Duration(float64(d) * k) }
