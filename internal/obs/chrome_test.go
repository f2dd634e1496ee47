package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"accelflow/internal/sim"
)

// CheckTraceMatchesRef fails t unless WriteChromeTrace writes the same
// bytes as the encoding/json reference for s, or both writers fail.
// Exported for the external test package's workload runs.
func CheckTraceMatchesRef(t testing.TB, name string, s *Sink) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := s.WriteChromeTrace(&got)
	wantErr := writeChromeTraceRef(s, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-120, 0)
		t.Fatalf("%s: %d bytes, reference %d; first difference at byte %d\ngot:  %q\nwant: %q",
			name, len(g), len(w), i, g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

// edgeSink records what the golden fixtures do not: names that need
// every kind of escaping, ties between begins, ends and segments at
// one timestamp, an unended span, fault and control roots, and sample
// values on both sides of the float format cutoffs.
func edgeSink() *Sink {
	s := New()
	clk := &tick{}
	s.SetClock(clk)

	names := []string{
		"plain", "quote\" back\\slash", "ctl\x00\x01\x1f\b\f\n\r\t", "<html>&amp;",
		"bad\xffutf8\xc3", "sep\u2028par\u2029", "unicodé ✓ 😀", "",
	}
	var open []*Span
	for i, n := range names {
		req := s.BeginRequest(n)
		ch := req.Child(SpanChain, n+"/chain")
		ent := ch.Child(SpanEntry, n)
		// Several segments on one span at one start time keep their
		// recorded order.
		ent.Seg(SegQueue, n, 0, sim.Time(i+1)*sim.Nanosecond)
		ent.Seg(SegCompute, n, 0, sim.Time(i+2)*sim.Nanosecond)
		ent.Seg(SegDMA, "mem/"+n, 0, 1)
		ent.End() // ends at 0 with the others: innermost closes first
		if i%2 == 0 {
			ch.End()
		}
		open = append(open, req)
	}
	clk.t = 3 * sim.Microsecond
	f := s.BeginFault("fault/pe-degrade/\"Cmp\"")
	f.Seg(SegFault, "pe/Cmp", 0, 3*sim.Microsecond)
	c := s.BeginControl("control/scale-up/pe@+1")
	c.Seg(SegControl, "control/scale-up/pe@+1", sim.Microsecond, 3*sim.Microsecond)
	c.End()
	clk.t = 1<<62 + 12345
	for _, sp := range open[:len(open)-1] {
		sp.End() // the last request stays unended
	}

	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e-7, 1.5e-9, 5e-324, 1e21, math.Nextafter(1e21, 0), -1e21, 1e300,
		math.MaxFloat64, 123456789.125, 1.0 / 3,
	}
	for i, v := range values {
		s.Sample("util/"+names[i%len(names)], sim.Time(i)*7, v)
	}
	return s
}

func TestChromeTraceMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		sink *Sink
	}{
		{"nil", nil},
		{"empty", emptySink()},
		{"single", singleRequestSink()},
		{"edge", edgeSink()},
	} {
		CheckTraceMatchesRef(t, tc.name, tc.sink)
	}
}

// TestChromeTraceChunks: an export larger than one chunk reaches the
// writer in pieces and still matches the reference.
func TestChromeTraceChunks(t *testing.T) {
	s := New()
	for i := 0; i < 4*traceChunk/60; i++ {
		s.Sample("util/cores", sim.Time(i)*sim.Microsecond, float64(i%7)/7)
	}
	cw := &countingWriter{}
	if err := s.WriteChromeTrace(cw); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 4 {
		t.Fatalf("%d-byte export arrived in %d writes, want it chunked", cw.n, cw.writes)
	}
	CheckTraceMatchesRef(t, "chunked", s)
}

type countingWriter struct{ n, writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	w.writes++
	return len(p), nil
}

// TestChromeTraceNonFinite: a NaN or infinite sample fails the export,
// as it failed the encoding/json writer.
func TestChromeTraceNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := singleRequestSink()
		s.Sample("util/accel/TCP", 15*sim.Microsecond, v)
		if err := s.WriteChromeTrace(&bytes.Buffer{}); err == nil {
			t.Errorf("sample %v: export succeeded, want an error", v)
		}
		CheckTraceMatchesRef(t, fmt.Sprint(v), s)
	}
}

// TestChromeTraceWriteError: a failing writer's error is returned.
func TestChromeTraceWriteError(t *testing.T) {
	want := errors.New("disk full")
	if err := singleRequestSink().WriteChromeTrace(failingWriter{want}); !errors.Is(err, want) {
		t.Fatalf("error %v, want %v", err, want)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// jsonEncode is encoding/json's rendering of v as the trace writer
// configured it: no HTML escaping, trailing newline dropped.
func jsonEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", `"`, `\`, `a"b\c`, "\x00\x01\x07\x1f\x7f", "\b\f\n\r\t",
		"\xff", "\xc3", "a\xe2\x80", "\xed\xa0\x80", "\u2028", "\u2029", "x\u2028y\u2029z",
		"<script>&</script>", "unicodé ✓ 😀", "\ufffd",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := jsonEncode(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got := appendJSONString(prefix, s)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendJSONString(%q) = %q, encoding/json %q", s, got[len(prefix):], want)
		}
	})
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1e-9, 1e-10, 5e-324,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22, 1e100,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, wantErr := jsonEncode(v)
		prefix := []byte("prefix")
		got, err := appendJSONFloat(prefix, v)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("appendJSONFloat(%v): error %v, encoding/json error %v", v, err, wantErr)
		}
		if err != nil {
			if !bytes.Equal(got, prefix) {
				t.Fatalf("appendJSONFloat(%v) failed but appended %q", v, got[len(prefix):])
			}
			return
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendJSONFloat(%v) = %q, encoding/json %q", v, got[len(prefix):], want)
		}
	})
}
