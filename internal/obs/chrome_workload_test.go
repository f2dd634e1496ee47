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

// workloadSinks runs the observed workloads the differential tests
// compare on, named: 150 and 300 requests at seeds 1-8, a faulted run
// and an autoscaled run. Their traces carry tens of thousands of
// events with every span and segment kind the engine, the fault
// injector, and the controller emit.
func workloadSinks(t *testing.T) []namedSink {
	t.Helper()
	if testing.Short() {
		t.Skip("runs 18 observed simulations")
	}
	var sinks []namedSink
	for _, requests := range []int{150, 300} {
		for seed := int64(1); seed <= 8; seed++ {
			p := workload.ObservedParams{Seed: seed, Requests: requests, Quick: true}
			sinks = append(sinks, namedSink{fmt.Sprintf("seed %d, %d requests", seed, requests), observedSink(t, p)})
		}
	}

	faulted := observedSink(t, workload.ObservedParams{
		Seed: 3, Requests: 150, Quick: true,
		FaultRate: 2000, FaultWindow: 200 * sim.Microsecond, FaultLoss: 0.001,
	})
	if spanKinds(faulted)[obs.SpanFault] == 0 {
		t.Fatal("the faulted run recorded no fault spans")
	}

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
	return append(sinks, namedSink{"faulted", faulted}, namedSink{"controlled", controlled})
}

type namedSink struct {
	name string
	sink *obs.Sink
}

// TestChromeTraceMatchesReferenceOnWorkloads holds the encoder to the
// encoding/json reference on real observed runs.
func TestChromeTraceMatchesReferenceOnWorkloads(t *testing.T) {
	for _, ns := range workloadSinks(t) {
		obs.CheckTraceMatchesRef(t, ns.name, ns.sink)
	}
}

// TestReportMatchesReferenceOnWorkloads holds the report to the
// Spans()-based reference on the same runs; the report fixtures are
// too small to exercise its aggregation.
func TestReportMatchesReferenceOnWorkloads(t *testing.T) {
	for _, ns := range workloadSinks(t) {
		obs.CheckReportMatchesRef(t, ns.name, ns.sink)
	}
}

// exportAllocBudget bounds the allocations of one trace export of a
// 150-request observed run. The encoder allocates its sort records and
// their radix scratch, one chunk buffer, and the escaped text of the
// run's few dozen names, 18 objects in all; the encoding/json writer
// it replaced allocated over 200,000 (a map and boxed values per
// event). The run has tens of thousands of events, so any per-event
// allocation breaks the budget.
const exportAllocBudget = 32

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

// reportAllocBudget bounds the allocations of one report export of the
// same run: 386 objects, nearly all of them the report's maps and
// encoding/json's sorting of their keys. Aggregating copies of every
// span and segment (Sink.Spans) cost 3,870.
const reportAllocBudget = 600

func TestWriteReportAllocBudget(t *testing.T) {
	sink := observedSink(t, workload.ObservedParams{Seed: 1, Requests: 150, Quick: true})
	allocs := testing.AllocsPerRun(3, func() {
		if err := sink.WriteReport(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > reportAllocBudget {
		t.Fatalf("one report export allocated %.0f objects, budget %d", allocs, reportAllocBudget)
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
