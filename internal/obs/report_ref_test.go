package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/bits"
	"sort"
	"testing"

	"accelflow/internal/metrics"
	"accelflow/internal/sim"
)

// This file keeps the BuildReport that aggregated copies of every span
// (Sink.Spans) before the report read the slabs directly. It is the
// reference the differential tests hold the report to: same bytes.

// buildReportRef is the Spans()-based aggregation.
func buildReportRef(s *Sink) *Report {
	rep := &Report{
		SegByKind: map[string]float64{},
		SegByRes:  map[string]float64{},
		KindByRes: map[string]map[string]float64{},
	}
	if s == nil {
		return rep
	}

	spans := s.Spans()
	rep.Spans = len(spans)
	byService := map[string][]sim.Time{}
	var services []string
	for _, sd := range spans {
		if sd.Kind == SpanRequest {
			rep.Requests++
			if _, ok := byService[sd.Name]; !ok {
				services = append(services, sd.Name)
			}
			byService[sd.Name] = append(byService[sd.Name], sd.End-sd.Start)
		}
		for _, seg := range sd.Segs {
			us := usec(seg.End - seg.Start)
			k, r := seg.Kind.String(), seg.Resource
			rep.SegByKind[k] += us
			rep.SegByRes[r] += us
			m := rep.KindByRes[r]
			if m == nil {
				m = map[string]float64{}
				rep.KindByRes[r] = m
			}
			m[k] += us
		}
	}

	sort.Strings(services)
	for _, svc := range services {
		lats := byService[svc]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sr := ServiceReport{Service: svc, Count: len(lats)}
		var sum float64
		maxBucket := 0
		buckets := map[int]int{}
		for _, l := range lats {
			us := usec(l)
			sum += us
			b := 0
			if whole := uint64(us); whole > 0 {
				b = bits.Len64(whole) - 1
			}
			buckets[b]++
			if b > maxBucket {
				maxBucket = b
			}
		}
		sr.MeanUs = sum / float64(len(lats))
		sr.P50Us = usec(metrics.NearestRank(lats, 50))
		sr.P99Us = usec(metrics.NearestRank(lats, 99))
		sr.MaxUs = usec(lats[len(lats)-1])
		sr.Histogram = make([]int, maxBucket+1)
		for b, n := range buckets {
			sr.Histogram[b] = n
		}
		rep.Services = append(rep.Services, sr)
	}

	for _, sv := range s.SeriesList() {
		sr := SeriesReport{Name: sv.Name}
		var sum float64
		for i := range sv.Times {
			sr.TimeUs = append(sr.TimeUs, usec(sv.Times[i]))
			v := sv.Values[i]
			sr.Values = append(sr.Values, v)
			sum += v
			if v > sr.Max {
				sr.Max = v
			}
		}
		if n := len(sv.Values); n > 0 {
			sr.Mean = sum / float64(n)
		}
		rep.Utilization = append(rep.Utilization, sr)
	}
	return rep
}

// writeReportRef writes the reference report as WriteReport formats
// its own.
func writeReportRef(s *Sink, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(buildReportRef(s)); err != nil {
		return err
	}
	return bw.Flush()
}

// CheckReportMatchesRef fails t unless WriteReport writes the same
// bytes as the Spans()-based reference for s, or both fail. Exported
// for the external test package's workload runs.
func CheckReportMatchesRef(t testing.TB, name string, s *Sink) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := s.WriteReport(&got)
	wantErr := writeReportRef(s, &want)
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

// TestReportMatchesReference holds the report to the reference on the
// fixtures: a nil sink, an empty one, the golden request, and the edge
// sink's escapes, unended span and extreme samples.
func TestReportMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		sink *Sink
	}{
		{"nil", nil},
		{"empty", emptySink()},
		{"single", singleRequestSink()},
		{"edge", edgeSink()},
	} {
		CheckReportMatchesRef(t, tc.name, tc.sink)
	}
}
