package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"accelflow/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden export fixtures")

// tick is a hand-settable Clock: fixture spans begin and end at exact
// scripted instants, so the exported bytes are fully deterministic.
type tick struct{ t sim.Time }

func (c *tick) Now() sim.Time { return c.t }

// emptySink is a sink that observed nothing — the export layer must
// still produce well-formed documents.
func emptySink() *Sink {
	s := New()
	s.SetClock(&tick{})
	return s
}

// singleRequestSink scripts one request span tree with every segment
// and sample path exercised: request -> step -> chain -> entry, queue
// and compute segments, a remote wait, and one time series.
func singleRequestSink() *Sink {
	s := New()
	clk := &tick{}
	s.SetClock(clk)

	req := s.BeginRequest("TCP/IP")
	step := req.Child(SpanStep, "accel step")
	chain := step.Child(SpanChain, "chain 0")
	entry := chain.Child(SpanEntry, "TCP trace")
	entry.Seg(SegQueue, "accel/TCP", 0, 2*sim.Microsecond)
	entry.Seg(SegCompute, "accel/TCP", 2*sim.Microsecond, 9*sim.Microsecond)
	entry.QueuedSeg(SegDispatch, "manager", 9*sim.Microsecond, 500*sim.Nanosecond)
	clk.t = 10 * sim.Microsecond
	entry.End()
	chain.Seg(SegRemote, "peer", 10*sim.Microsecond, 14*sim.Microsecond)
	clk.t = 14 * sim.Microsecond
	chain.End()
	clk.t = 15 * sim.Microsecond
	step.End()
	req.Seg(SegCPU, "cores", 15*sim.Microsecond, 16*sim.Microsecond)
	clk.t = 16 * sim.Microsecond
	req.End()

	s.Sample("util/accel/TCP", 0, 0)
	s.Sample("util/accel/TCP", 5*sim.Microsecond, 0.7)
	s.Sample("util/accel/TCP", 10*sim.Microsecond, 0.4)
	return s
}

// checkGolden compares got against the named fixture byte-for-byte
// (rewriting it under -update). Byte equality is the contract: these
// exports feed external dashboards and diff-based tooling, so even a
// reordered JSON key is a breaking change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from fixture (%d bytes vs %d); run with -update if intended\ngot:\n%s",
			name, len(got), len(want), got)
	}
}

func TestGoldenExports(t *testing.T) {
	cases := []struct {
		name string
		sink *Sink
	}{
		{"empty", emptySink()},
		{"single", singleRequestSink()},
	}
	for _, tc := range cases {
		var report, trace bytes.Buffer
		if err := tc.sink.WriteReport(&report); err != nil {
			t.Fatalf("%s: WriteReport: %v", tc.name, err)
		}
		if err := tc.sink.WriteChromeTrace(&trace); err != nil {
			t.Fatalf("%s: WriteChromeTrace: %v", tc.name, err)
		}
		checkGolden(t, "report_"+tc.name+".json", report.Bytes())
		checkGolden(t, "trace_"+tc.name+".json", trace.Bytes())
	}
}
