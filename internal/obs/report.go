// Structured per-run report: latency histograms per service, segment
// breakdowns by kind and by resource, and the sampled utilization
// series — everything a later analysis needs without re-parsing the
// Chrome trace.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math/bits"
	"sort"

	"accelflow/internal/sim"
)

// Report is the machine-readable summary of one observed run. All
// times are microseconds (float) to match the trace export.
type Report struct {
	Requests    int                           `json:"requests"`
	Spans       int                           `json:"spans"`
	Services    []ServiceReport               `json:"services"`
	SegByKind   map[string]float64            `json:"segUsByKind"`
	SegByRes    map[string]float64            `json:"segUsByResource"`
	Utilization []SeriesReport                `json:"utilization"`
	KindByRes   map[string]map[string]float64 `json:"segUsByResourceKind"`
}

// ServiceReport aggregates the request spans of one service.
type ServiceReport struct {
	Service string  `json:"service"`
	Count   int     `json:"count"`
	MeanUs  float64 `json:"meanUs"`
	P50Us   float64 `json:"p50Us"`
	P99Us   float64 `json:"p99Us"`
	MaxUs   float64 `json:"maxUs"`
	// Histogram buckets request latencies by power-of-two microsecond
	// ranges: bucket i counts latencies in [2^i, 2^(i+1)) us, bucket 0
	// additionally holds everything below 1us.
	Histogram []int `json:"histogramLog2Us"`
}

// SeriesReport is one utilization timeline with summary stats.
type SeriesReport struct {
	Name   string    `json:"name"`
	Mean   float64   `json:"mean"`
	Max    float64   `json:"max"`
	TimeUs []float64 `json:"timeUs"`
	Values []float64 `json:"values"`
}

// BuildReport aggregates the recorded spans and series. Safe on a nil
// sink (returns an empty report).
func (s *Sink) BuildReport() *Report {
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
		sr.P50Us = usec(nearestRank(lats, 50))
		sr.P99Us = usec(nearestRank(lats, 99))
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

// nearestRank is the nearest-rank percentile of a sorted slice,
// matching metrics.Recorder.Percentile.
func nearestRank(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteReport writes the report as indented JSON. encoding/json sorts
// map keys, so the bytes depend only on the recorded data.
func (s *Sink) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s.BuildReport()); err != nil {
		return err
	}
	return bw.Flush()
}
