package main

import "time"

// The host this benchmark runs on is shared: over minutes its cores slow
// down and speed up by tens of percent (by up to 2.5x at times), and the
// simulator slows with them. So that runs made at different times can be
// compared, the end-to-end times are scaled to a reference host speed:
// before every iteration the benchmark times a fixed integer loop, and a
// run's times are multiplied by probeRef over the median of those probe
// times. The loop runs no simulator code, so a change to the simulator
// cannot move the scale. Changing probeSteps, probeReps or probeRef
// changes every reported time and breaks comparison with earlier runs.
const (
	probeSteps = 1_000_000
	probeReps  = 5
	// probeRef is the probe time on the reference host (the baseline
	// host in README.md, in its slow mode).
	probeRef = 3500 * time.Microsecond
)

var probeSink uint64

// hostProbe returns the median time of probeReps runs of a serial
// xorshift-multiply loop of probeSteps steps. Each step depends on the
// previous one, so the loop measures core speed, not memory or
// vector width.
func hostProbe() time.Duration {
	ds := make([]float64, 0, probeReps)
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		x := uint64(r + 1)
		for k := 0; k < probeSteps; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x9E3779B97F4A7C15
		}
		probeSink += x
		ds = append(ds, time.Since(t).Seconds())
	}
	return time.Duration(median(ds) * float64(time.Second))
}

// hostScale is the factor that takes times measured while the probe read
// probes to the reference host speed.
func hostScale(probes []float64) float64 {
	return probeRef.Seconds() / median(probes)
}
