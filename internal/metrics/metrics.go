// Package metrics provides latency recording (average and percentile
// reporting for the paper's P99 figures), breakdown accumulation, and
// the SLO-bounded maximum-throughput search of Fig. 14.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"accelflow/internal/sim"
)

// Recorder collects latency samples for one series (one service under
// one architecture).
//
// Recorder is NOT safe for concurrent use: Add appends to the sample
// slice and even the read-side Percentile mutates state (it sorts
// in place and caches the fact). The parallel sweep engine
// (internal/experiments/sweep.go) relies on confinement instead of
// locks — every recorder is created inside one simulation cell, used
// only by that cell's goroutine, and only scalar results cross the
// join. Keep it that way: do not share a Recorder across goroutines,
// and do not add synchronization here to make sharing "work".
type Recorder struct {
	Name    string
	samples []sim.Time
	sum     sim.Time
	sorted  bool
}

// NewRecorder returns an empty recorder.
func NewRecorder(name string) *Recorder { return &Recorder{Name: name} }

// Grow makes room for n more samples, so that a caller that knows how
// many it will add pays for one allocation instead of repeated growth.
func (r *Recorder) Grow(n int) { r.samples = slices.Grow(r.samples, n) }

// Add records one sample.
func (r *Recorder) Add(t sim.Time) {
	r.samples = append(r.samples, t)
	r.sum += t
	r.sorted = false
}

// Count reports the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the average latency.
func (r *Recorder) Mean() sim.Time {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / sim.Time(len(r.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) of the
// samples by NearestRank.
func (r *Recorder) Percentile(p float64) sim.Time {
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	return NearestRank(r.samples, p)
}

// NearestRank returns the p-th percentile (0 < p <= 100) of an
// ascending slice: the value at 1-based rank ceil(p/100·n), clamped to
// [1, n], and the zero value for an empty slice. It is the rank rule
// of every percentile the simulator reports or acts on.
func NearestRank[T cmp.Ordered](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Merge folds all of other's samples into r, invalidating r's sort
// cache; other is left unchanged. Use it to combine per-cell recorders
// single-threaded after a parallel sweep join — merging does not make
// Recorder safe for concurrent use.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil || len(other.samples) == 0 {
		return
	}
	r.samples = append(r.samples, other.samples...)
	r.sum += other.sum
	r.sorted = false
}

// Below counts samples at or under the threshold — the SLO-attainment
// numerator. It shares Percentile's sort cache, so an already-sorted
// recorder answers in O(log n).
func (r *Recorder) Below(t sim.Time) int {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		slices.Sort(r.samples)
		r.sorted = true
	}
	return sort.Search(len(r.samples), func(i int) bool { return r.samples[i] > t })
}

// P99 is shorthand for the tail latency the paper reports everywhere.
func (r *Recorder) P99() sim.Time { return r.Percentile(99) }

// P50 is the median.
func (r *Recorder) P50() sim.Time { return r.Percentile(50) }

// Max returns the largest sample.
func (r *Recorder) Max() sim.Time { return r.Percentile(100) }

// String summarizes the recorder.
func (r *Recorder) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p99=%v", r.Name, r.Count(), r.Mean(), r.P50(), r.P99())
}

// SizeStats reports min/median/max of a sample of sizes (Fig. 5).
type SizeStats struct{ Min, Median, Max int }

// Sizes computes SizeStats from samples.
func Sizes(samples []int) SizeStats {
	if len(samples) == 0 {
		return SizeStats{}
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	return SizeStats{Min: s[0], Median: s[len(s)/2], Max: s[len(s)-1]}
}

// ThroughputSearch finds the maximum offered load (in requests/s) whose
// measured P99 stays within the SLO, via bracketed binary search.
// measure runs a fresh simulation at the given load and returns its
// P99. The search doubles from loStart until violation (or hiCap), then
// bisects to the given relative tolerance. A probe that fails is not a
// latency: the search stops and returns its error.
func ThroughputSearch(measure func(rps float64) (sim.Time, error), slo sim.Time, loStart, hiCap float64, tol float64) (float64, error) {
	if loStart <= 0 {
		loStart = 100
	}
	if slo <= 0 {
		return 0, nil
	}
	lo := 0.0
	hi := loStart
	// Grow until the SLO is violated.
	for hi < hiCap {
		p99, err := measure(hi)
		if err != nil {
			return 0, err
		}
		if p99 > slo {
			break
		}
		lo = hi
		hi *= 2
	}
	if hi > hiCap {
		hi = hiCap
	}
	// Bisect; the absolute floor of one request/s keeps the search
	// finite when even the starting load violates the SLO.
	for hi-lo > tol*hi && hi-lo > 1 {
		mid := (lo + hi) / 2
		p99, err := measure(mid)
		if err != nil {
			return 0, err
		}
		if p99 <= slo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
