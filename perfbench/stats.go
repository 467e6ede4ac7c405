package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile. A tail percentile estimated from fewer is one or two
// slow samples, not a distribution, so the benchmark refuses to report
// it rather than print a number that moves with a single outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100): the smallest sample with at least p% of the samples at or
// below it. It fails when fewer than minBeyond samples lie beyond that
// rank, so p50 needs 20 samples and p90 needs 100.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle sample (mean of the two middle ones for an even
// count). Unlike percentile it reports any non-empty sample set: it is
// used for per-iteration figures inside one run, where repeated runs
// supply the spread.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// metricName is the grammar every reported metric name must satisfy:
// it starts with a letter or digit and uses only letters, digits, '_',
// '.' and '-', at most 64 characters.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics and rejects malformed names, non-finite
// values and duplicates, so a bad name fails the run instead of the
// result being refused downstream.
type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("metric %q reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %q is %v", name, v)
	}
	m[name] = metric{Value: v, Unit: unit}
	return nil
}
