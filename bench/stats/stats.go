// Package stats summarizes benchmark samples: the median, the
// quartiles, and a 95th percentile that is reported only when the
// sample holds enough values beyond it to mean anything.
//
// Quantiles use the "exclusive" method of Python's
// statistics.quantiles (position q·(n+1), linear interpolation between
// neighbours), so the spreads printed here are the ones a reader gets
// by feeding the same values to that function.
package stats

import (
	"sort"
)

// TailSamples is how many samples must lie beyond a tail percentile
// before it is reported: with fewer, the percentile is one or two
// outliers, not a property of the system.
const TailSamples = 10

// Summary describes one metric's samples.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// P95 is meaningful only when HasP95 is set, which needs at least
	// TailSamples samples beyond it (n >= 200).
	P95    float64
	HasP95 bool
}

// Summarize sorts a copy of xs and summarizes it. An empty slice gives
// the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := Summary{
		N:      len(s),
		Median: Quantile(s, 0.5),
		Q1:     Quantile(s, 0.25),
		Q3:     Quantile(s, 0.75),
	}
	if TailOK(len(s), 95) {
		sum.P95 = Quantile(s, 0.95)
		sum.HasP95 = true
	}
	return sum
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 { return Summarize(xs).Median }

// MixMedian is the typical value of a sample drawn from a mix of
// kinds: each kind's median, weighted by the kind's share of the
// sample (kinds[i] is the kind of xs[i]). With one kind it is the
// median. Unlike the plain median of a mix whose kinds take very
// different times, it does not jump between kinds when their shares
// shift by a sample or two.
func MixMedian(xs []float64, kinds []string) float64 {
	byKind := map[string][]float64{}
	var names []string
	for i, x := range xs {
		if byKind[kinds[i]] == nil {
			names = append(names, kinds[i])
		}
		byKind[kinds[i]] = append(byKind[kinds[i]], x)
	}
	sort.Strings(names) // a fixed summation order
	var m float64
	for _, k := range names {
		v := byKind[k]
		m += float64(len(v)) / float64(len(xs)) * Median(v)
	}
	return m
}

// TailOK reports whether n samples leave at least TailSamples beyond
// the pct-th percentile. Integer arithmetic keeps the n = 200 edge of
// the 95th percentile exact.
func TailOK(n, pct int) bool {
	return n*(100-pct)/100 >= TailSamples
}

// Quantile returns the q-quantile (0 < q < 1) of sorted, placing it at
// 1-based position q·(n+1) clamped to [1, n] and interpolating
// linearly between the neighbouring samples.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := q * float64(n+1)
	if h <= 1 {
		return sorted[0]
	}
	if h >= float64(n) {
		return sorted[n-1]
	}
	lo := int(h)
	frac := h - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}
