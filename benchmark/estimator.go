package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the smallest value that at least the share p of
// the values do not exceed (nearest rank), so a round of 200 requests
// has 10 values beyond its 95th percentile. It returns 0 for no values.
func percentile[T int | float64 | time.Duration](values []T, p float64) T {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the middle value, the mean of the two middle values of
// an even count, and 0 for no values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The end-to-end estimators pool the windows of a run's rounds. Their
// times are at reference speed already (see reference.go), which leaves
// noise on both sides of a value, so the whole sample estimates it
// better than any one round.

// windows returns the windows of all the rounds.
func windows(rounds []roundResult) []window {
	var all []window
	for _, r := range rounds {
		all = append(all, r.Windows...)
	}
	return all
}

// latencies returns the latencies of every request in the windows.
func latencies(windows []window) []time.Duration {
	var all []time.Duration
	for _, w := range windows {
		all = append(all, w.Latencies...)
	}
	return all
}

// samplesPerSecond is samples over the time the closed loop spent on
// them.
func samplesPerSecond(windows []window) float64 {
	var samples int
	var spent time.Duration
	for _, w := range windows {
		samples += w.Samples
		spent += w.Wall
	}
	return float64(samples) / spent.Seconds()
}

// scheduledPerSecond is samples over the time an open loop's rounds
// took on the reference clock: its schedule, and not the machine's
// speed, decides how long a round takes.
func scheduledPerSecond(rounds []roundResult) float64 {
	var samples int
	var spent time.Duration
	for _, r := range rounds {
		samples += r.Samples
		spent += r.RefWall
	}
	return float64(samples) / spent.Seconds()
}

// cpuPerSample is process CPU time per sample served, in ms.
func cpuPerSample(windows []window) float64 {
	var samples int
	var cpu time.Duration
	for _, w := range windows {
		samples += w.Samples
		cpu += w.CPU
	}
	return ms(cpu) / float64(max(samples, 1))
}
