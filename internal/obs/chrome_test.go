package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestSortByTime: the radix sort orders records as a stable sort by
// time does, across the whole int64 range, ties and runs of shared
// high bytes included.
func TestSortByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	times := []sim.Time{math.MinInt64, -1, 0, 1, 255, 256, 1 << 40, math.MaxInt64}
	for n := 0; n < 300; n += 7 {
		recs := make([]traceRec, n)
		for i := range recs {
			switch i % 3 {
			case 0:
				recs[i].ts = times[rng.Intn(len(times))]
			case 1:
				recs[i].ts = sim.Time(rng.Int63n(1 << 20))
			default:
				recs[i].ts = sim.Time(rng.Uint64())
			}
			if n%2 == 0 {
				recs[i].ts = 1<<40 + recs[i].ts%300 // only the low bytes differ
			}
			recs[i].seq = int32(i)
		}
		want := slices.Clone(recs)
		slices.SortStableFunc(want, func(a, b traceRec) int { return cmp.Compare(a.ts, b.ts) })
		if got := sortByTime(recs); !slices.Equal(got, want) {
			t.Fatalf("%d records: radix order differs from a stable sort", n)
		}
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

// TestRenderArtifactMatchesWrite: RenderArtifact returns the bytes
// WriteArtifact writes, multi-chunk traces included, and fails where
// it fails.
func TestRenderArtifactMatchesWrite(t *testing.T) {
	chunked := New()
	for i := 0; i < 4*traceChunk/60; i++ {
		chunked.Sample("util/cores", sim.Time(i)*sim.Microsecond, float64(i%7)/7)
	}
	nonFinite := singleRequestSink()
	nonFinite.Sample("util/accel/TCP", 15*sim.Microsecond, math.NaN())
	for _, tc := range []struct {
		name string
		sink *Sink
	}{
		{"nil", nil},
		{"empty", emptySink()},
		{"single", singleRequestSink()},
		{"edge", edgeSink()},
		{"chunked", chunked},
		{"non-finite", nonFinite},
	} {
		for _, a := range Artifacts() {
			var want bytes.Buffer
			wantErr := tc.sink.WriteArtifact(a, &want)
			got, err := tc.sink.RenderArtifact(a)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s %s: error %v, WriteArtifact error %v", tc.name, a, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s %s: rendered %d bytes, WriteArtifact wrote %d", tc.name, a, len(got), want.Len())
			}
		}
	}
	if _, err := New().RenderArtifact("pdf"); err == nil {
		t.Fatal("an unknown artifact rendered")
	}
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

func FuzzAppendMicros(f *testing.F) {
	for _, t := range []int64{
		0, 1, 999_999, 1e6, 1e15 - 1, 1e15, math.MaxInt64,
		-1, -1e6, math.MinInt64, 123_456_789, 1_000_000_000_001,
	} {
		f.Add(t)
	}
	check := func(t *testing.T, ps int64) {
		want, err := appendJSONFloat(nil, usec(sim.Time(ps)))
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got := appendMicros(prefix, sim.Time(ps))
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("appendMicros(%d) = %q, appendJSONFloat %q", ps, got[len(prefix):], want)
		}
	}
	f.Fuzz(func(t *testing.T, ps int64) {
		check(t, ps)
		// Most int64s lie beyond 1e15 ps, on the float fallback; fold
		// each into the integer path's range as well.
		check(t, ps%1e15)
		check(t, max(ps%1e15, -ps%1e15))
	})
}
