package stats

import (
	"math"
	"testing"
)

// The expected quartiles are what Python's statistics.quantiles(xs,
// n=4) returns for the same vectors, and the medians are
// statistics.median.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{xs: []float64{1, 2, 3, 4}, q1: 1.25, med: 2.5, q3: 3.75},
		{xs: []float64{5, 1, 4, 2, 3}, q1: 1.5, med: 3, q3: 4.5},
		{xs: []float64{2, 2}, q1: 2, med: 2, q3: 2},
		{xs: []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, q1: 30, med: 60, q3: 90},
	}
	for _, c := range cases {
		s := Summarize(c.xs)
		if s.N != len(c.xs) || !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) {
			t.Errorf("Summarize(%v) = n %d q1 %v med %v q3 %v; want %v %v %v",
				c.xs, s.N, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// The 95th percentile needs TailSamples samples beyond it: 200 values
// leave exactly 10, 199 leave 9.
func TestP95Gate(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if s := Summarize(ramp(199)); s.HasP95 {
		t.Errorf("n=199 reported a p95 (%v)", s.P95)
	}
	s := Summarize(ramp(200))
	if !s.HasP95 {
		t.Fatal("n=200 did not report a p95")
	}
	// Position 0.95·201 = 190.95 on the ramp 1..200.
	if !near(s.P95, 190.95) {
		t.Errorf("p95 of 1..200 = %v, want 190.95", s.P95)
	}
	if TailOK(19, 50) != false || TailOK(20, 50) != true {
		t.Error("median gate should need 20 samples")
	}
}

func TestMixMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 100, 200}
	kinds := []string{"a", "a", "a", "b", "b"}
	// 3/5 of median(1,2,3) plus 2/5 of median(100,200).
	if got, want := MixMedian(xs, kinds), 0.6*2+0.4*150; !near(got, want) {
		t.Errorf("MixMedian = %v, want %v", got, want)
	}
	one := []string{"", "", "", "", ""}
	if got := MixMedian(xs, one); got != 3 {
		t.Errorf("single-kind MixMedian = %v, want the median 3", got)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{3.5}); s.Median != 3.5 || s.Q1 != 3.5 || s.Q3 != 3.5 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
