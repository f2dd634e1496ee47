package metrics

import (
	"errors"
	"testing"
	"testing/quick"

	"accelflow/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder("x")
	if r.Mean() != 0 || r.P99() != 0 || r.Count() != 0 {
		t.Error("empty recorder not zeroed")
	}
	for i := 1; i <= 100; i++ {
		r.Add(sim.Time(i) * sim.Microsecond)
	}
	if r.Count() != 100 {
		t.Errorf("count = %d", r.Count())
	}
	if r.Mean() != sim.FromMicros(50.5) {
		t.Errorf("mean = %v", r.Mean())
	}
	if r.P99() != 99*sim.Microsecond {
		t.Errorf("p99 = %v, want 99us", r.P99())
	}
	if r.P50() != 50*sim.Microsecond {
		t.Errorf("p50 = %v, want 50us", r.P50())
	}
	if r.Max() != 100*sim.Microsecond {
		t.Errorf("max = %v", r.Max())
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestRecorderUnsortedInsertions(t *testing.T) {
	r := NewRecorder("x")
	for _, v := range []sim.Time{5, 1, 9, 3, 7} {
		r.Add(v * sim.Microsecond)
	}
	if r.P50() != 5*sim.Microsecond {
		t.Errorf("p50 = %v", r.P50())
	}
	// Adding after a percentile query must still work.
	r.Add(100 * sim.Microsecond)
	if r.Max() != 100*sim.Microsecond {
		t.Errorf("max after re-add = %v", r.Max())
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder("q")
		for _, v := range raw {
			r.Add(sim.Time(v))
		}
		last := sim.Time(-1)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
			v := r.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return r.Percentile(100) == r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSizes(t *testing.T) {
	s := Sizes([]int{5, 1, 9, 3})
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("sizes = %+v", s)
	}
	if s.Median != 5 {
		t.Errorf("median = %d", s.Median)
	}
	if z := Sizes(nil); z.Min != 0 || z.Max != 0 {
		t.Error("empty sizes not zero")
	}
}

func TestThroughputSearchFindsKnee(t *testing.T) {
	// Synthetic system: P99 = 10us below 50k rps, 100us above.
	measure := func(rps float64) (sim.Time, error) {
		if rps <= 50000 {
			return 10 * sim.Microsecond, nil
		}
		return 100 * sim.Microsecond, nil
	}
	got, _ := ThroughputSearch(measure, 50*sim.Microsecond, 1000, 1e6, 0.02)
	if got < 45000 || got > 50000 {
		t.Errorf("knee found at %v, want ~50000", got)
	}
}

func TestThroughputSearchAllPass(t *testing.T) {
	measure := func(float64) (sim.Time, error) { return sim.Microsecond, nil }
	got, _ := ThroughputSearch(measure, 10*sim.Microsecond, 1000, 1e5, 0.05)
	if got < 0.9e5 {
		t.Errorf("unconstrained system capped at %v", got)
	}
}

func TestThroughputSearchAllFail(t *testing.T) {
	measure := func(float64) (sim.Time, error) { return sim.Second, nil }
	got, _ := ThroughputSearch(measure, sim.Microsecond, 1000, 1e5, 0.05)
	if got > 1000 {
		t.Errorf("hopeless system reported %v", got)
	}
}

func TestThroughputSearchMonotoneSystem(t *testing.T) {
	// P99 grows linearly with load; SLO crossed at 30k.
	measure := func(rps float64) (sim.Time, error) {
		return sim.Time(rps * float64(sim.Microsecond) / 1000), nil
	}
	got, _ := ThroughputSearch(measure, 30*sim.Microsecond, 500, 1e6, 0.02)
	if got < 28000 || got > 30000 {
		t.Errorf("found %v, want ~30000", got)
	}
}

// TestThroughputSearchStopsOnProbeError: a failed probe is an error,
// not a latency. The search returns the probe's error and runs no
// further probe, whether the failure comes while growing or while
// bisecting.
func TestThroughputSearchStopsOnProbeError(t *testing.T) {
	errProbe := errors.New("probe failed")
	// Knee at 30k: the search grows 1k..32k, then bisects.
	for _, failAt := range []int{1, 3, 7} {
		probes := 0
		measure := func(rps float64) (sim.Time, error) {
			probes++
			if probes == failAt {
				return 0, errProbe
			}
			return sim.Time(rps * float64(sim.Microsecond) / 1000), nil
		}
		got, err := ThroughputSearch(measure, 30*sim.Microsecond, 1000, 1e6, 0.02)
		if !errors.Is(err, errProbe) {
			t.Errorf("failure at probe %d: err = %v, want the probe's error", failAt, err)
		}
		if got != 0 {
			t.Errorf("failure at probe %d: returned %v rps alongside the error", failAt, got)
		}
		if probes != failAt {
			t.Errorf("failure at probe %d: ran %d probes, want none after the failure", failAt, probes)
		}
	}
}

func TestMergeMatchesCombinedRecorder(t *testing.T) {
	a := NewRecorder("a")
	b := NewRecorder("b")
	all := NewRecorder("all")
	for i := 1; i <= 40; i++ {
		s := sim.Time(i * 7 % 41)
		if i%2 == 0 {
			a.Add(s)
		} else {
			b.Add(s)
		}
		all.Add(s)
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), all.Count())
	}
	if a.Mean() != all.Mean() {
		t.Errorf("merged mean %v, want %v", a.Mean(), all.Mean())
	}
	for _, p := range []float64{50, 90, 99, 100} {
		if a.Percentile(p) != all.Percentile(p) {
			t.Errorf("merged p%.0f %v, want %v", p, a.Percentile(p), all.Percentile(p))
		}
	}
	// The source recorder must be untouched.
	if b.Count() != 20 {
		t.Errorf("source recorder mutated: count %d", b.Count())
	}
}

func TestMergeInvalidatesSortCache(t *testing.T) {
	a := NewRecorder("a")
	for _, s := range []sim.Time{10, 20, 30} {
		a.Add(s)
	}
	if got := a.Max(); got != 30 { // forces the sort + cache
		t.Fatalf("max %v", got)
	}
	b := NewRecorder("b")
	b.Add(100)
	a.Merge(b)
	if got := a.Max(); got != 100 {
		t.Errorf("max after merge %v, want 100 (stale sort cache?)", got)
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	a := NewRecorder("a")
	a.Add(5)
	a.Merge(nil)
	a.Merge(NewRecorder("empty"))
	if a.Count() != 1 || a.Mean() != 5 {
		t.Errorf("no-op merges changed recorder: n=%d mean=%v", a.Count(), a.Mean())
	}
}

func TestPercentileSortCacheStaysCorrectAfterAdd(t *testing.T) {
	r := NewRecorder("r")
	r.Add(50)
	r.Add(10)
	if got := r.P50(); got != 10 {
		t.Fatalf("p50 %v, want 10", got)
	}
	r.Add(1) // must invalidate the cached sort
	if got := r.Percentile(100); got != 50 {
		t.Errorf("max %v, want 50", got)
	}
	if got := r.Percentile(1); got != 1 {
		t.Errorf("p1 %v, want 1", got)
	}
}
