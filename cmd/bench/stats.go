package main

import (
	"math"
	"sort"
	"time"
)

// minBatch is the shortest interval the harness trusts a single clock pair
// to measure: every timing sample is the mean over one batch of operations
// sized to last at least this long.
const minBatch = 200 * time.Microsecond

// maxBatch caps a batch, so that a wildly low cost estimate cannot produce a
// batch that overruns its time slice.
const maxBatch = 1 << 16

// batchSize returns how many operations of the estimated per-op cost make a
// batch last at least minBatch.
func batchSize(perOpNs float64) int {
	if perOpNs <= 0 {
		return 1
	}
	n := int(math.Ceil(float64(minBatch) / perOpNs))
	if n < 1 {
		n = 1
	}
	if n > maxBatch {
		n = maxBatch
	}
	return n
}

// batchCount returns how many batches of n operations fit in the slice.
func batchCount(slice time.Duration, n int, perOpNs float64) int {
	b := int(float64(slice) / (float64(n) * perOpNs))
	if b < 1 {
		b = 1
	}
	return b
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailLadder is the percentiles the harness is willing to print, each with
// the share of samples beyond it in parts per 10000 (integers, so the
// ten-samples rule does not hang on floating-point rounding).
var tailLadder = []struct {
	p      float64
	beyond int
}{{90, 1000}, {95, 500}, {99, 100}, {99.9, 10}, {99.99, 1}}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, or 0 when even p90 has fewer (the
// median is then the only statistic the sample supports).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n*t.beyond >= 10*10000 {
			best = t.p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of v. For a metric
// where higher is better the bad tail is the low one, so the caller passes
// 100-p.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (exclusive method) — the rule the
// benchmark's gate applies to repeated runs. Fewer than two values have no
// spread.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sorted(v)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// measure times op in batches sized to last at least minBatch until the
// budget is spent and returns the per-operation samples in nanoseconds, one
// per batch. op runs n operations and reports how long they took, so a
// probe can exclude untimed work (resetting state) from its own number.
func measure(budget time.Duration, op func(n int) (time.Duration, error)) ([]float64, error) {
	n := 1
	var per float64
	for {
		d, err := op(n)
		if err != nil {
			return nil, err
		}
		per = float64(d) / float64(n)
		if d >= minBatch || n >= maxBatch {
			break
		}
		n *= 2
	}
	n = batchSize(per)
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 3 || time.Now().Before(deadline) {
		d, err := op(n)
		if err != nil {
			return nil, err
		}
		samples = append(samples, float64(d)/float64(n))
	}
	return samples, nil
}

// timed adapts a plain loop body to measure's signature.
func timed(body func(n int) error) func(n int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		t0 := time.Now()
		err := body(n)
		return time.Since(t0), err
	}
}
