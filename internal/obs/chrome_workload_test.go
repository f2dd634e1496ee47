package obs_test

import (
	"fmt"
	"io"
	"testing"

	"accelflow/internal/control"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

// observedSink runs the canonical observed workload and returns its
// sink.
func observedSink(tb testing.TB, p workload.ObservedParams) *obs.Sink {
	tb.Helper()
	spec, sink, err := workload.BuildObserved(p)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := spec.Run(); err != nil {
		tb.Fatal(err)
	}
	return sink
}

// spanKinds counts the recorded spans by kind.
func spanKinds(s *obs.Sink) map[obs.SpanKind]int {
	n := map[obs.SpanKind]int{}
	for _, sd := range s.Spans() {
		n[sd.Kind]++
	}
	return n
}

// TestChromeTraceMatchesReferenceOnWorkloads holds the encoder to the
// encoding/json reference on real observed runs, whose traces carry
// tens of thousands of events with every span and segment kind the
// engine, the fault injector, and the controller emit.
func TestChromeTraceMatchesReferenceOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 observed simulations")
	}
	for _, requests := range []int{150, 300} {
		for seed := int64(1); seed <= 8; seed++ {
			p := workload.ObservedParams{Seed: seed, Requests: requests, Quick: true}
			obs.CheckTraceMatchesRef(t, fmt.Sprintf("seed %d, %d requests", seed, requests), observedSink(t, p))
		}
	}

	faulted := observedSink(t, workload.ObservedParams{
		Seed: 3, Requests: 150, Quick: true,
		FaultRate: 2000, FaultWindow: 200 * sim.Microsecond, FaultLoss: 0.001,
	})
	if spanKinds(faulted)[obs.SpanFault] == 0 {
		t.Fatal("the faulted run recorded no fault spans")
	}
	obs.CheckTraceMatchesRef(t, "faulted", faulted)

	controlled := observedSink(t, workload.ObservedParams{
		Seed: 5, Requests: 300, Quick: true,
		Control: &control.Spec{
			Shed:      &control.ShedSpec{Queue: 48, Prob: 0.01},
			Autoscale: &control.AutoscaleSpec{Target: "pe", UpUtil: 0.05, DownUtil: 0.01, MaxAdd: 2, MaxRemove: 1},
		},
	})
	if spanKinds(controlled)[obs.SpanControl] == 0 {
		t.Fatal("the controlled run recorded no control spans")
	}
	obs.CheckTraceMatchesRef(t, "controlled", controlled)
}

// exportAllocBudget bounds the allocations of one trace export of a
// 150-request observed run. The encoder allocates its sort records and
// one chunk buffer; the encoding/json writer it replaced allocated
// over 200,000 objects (a map and boxed values per event). The run has
// tens of thousands of events, so any per-event allocation breaks the
// budget.
const exportAllocBudget = 2000

func TestWriteChromeTraceAllocBudget(t *testing.T) {
	sink := observedSink(t, workload.ObservedParams{Seed: 1, Requests: 150, Quick: true})
	allocs := testing.AllocsPerRun(3, func() {
		if err := sink.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > exportAllocBudget {
		t.Fatalf("one trace export allocated %.0f objects, budget %d", allocs, exportAllocBudget)
	}
}

func benchmarkTraceExport(b *testing.B, write func(*obs.Sink, io.Writer) error) {
	sink := observedSink(b, workload.ObservedParams{Seed: 1, Requests: 150, Quick: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(sink, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteChromeTrace times one trace export of a 150-request
// observed run, the daemon's per-job cost.
func BenchmarkWriteChromeTrace(b *testing.B) {
	benchmarkTraceExport(b, (*obs.Sink).WriteChromeTrace)
}

// BenchmarkWriteChromeTraceRef times the encoding/json reference on
// the same run, the cost the encoder replaced.
func BenchmarkWriteChromeTraceRef(b *testing.B) {
	benchmarkTraceExport(b, obs.WriteChromeTraceRef)
}
