// Structured per-run report: latency histograms per service, segment
// breakdowns by kind and by resource, and the sampled utilization
// series — everything a later analysis needs without re-parsing the
// Chrome trace.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"accelflow/internal/metrics"
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
// sink (returns an empty report). It reads the slabs directly, summing
// each breakdown by interned resource and kind in span creation order
// and each span's segments in recorded order, the order a walk over
// Spans would add them in.
func (s *Sink) BuildReport() *Report {
	rep := &Report{
		SegByKind: map[string]float64{},
		SegByRes:  map[string]float64{},
		KindByRes: map[string]map[string]float64{},
	}
	if s == nil {
		return rep
	}

	// Breakdown accumulators by kind, by resource, and by (resource,
	// kind) attribute. Every interned attribute has at least one
	// segment, so the attributes list every key the maps get.
	var byKind [1 << 8]float64
	byRes := make([]float64, len(s.names))
	byAttr := make([]float64, len(s.attrs))

	rep.Spans = int(s.nspans)
	byService := make([][]sim.Time, len(s.names))
	var services []int32 // interned names, in first-seen order
	for id := int32(0); id < s.nspans; id++ {
		r := s.span(id)
		if r.kind == SpanRequest {
			rep.Requests++
			if byService[r.name] == nil {
				services = append(services, r.name)
			}
			byService[r.name] = append(byService[r.name], r.endOrStart()-r.start)
		}
		for j := r.segHead; j >= 0; {
			g := s.seg(j)
			us := usec(g.end - g.start)
			a := s.attrs[g.attr]
			byKind[a.kind] += us
			byRes[a.res] += us
			byAttr[g.attr] += us
			j = g.next
		}
	}
	for i, a := range s.attrs {
		k, res := a.kind.String(), s.names[a.res]
		rep.SegByKind[k] = byKind[a.kind]
		rep.SegByRes[res] = byRes[a.res]
		m := rep.KindByRes[res]
		if m == nil {
			m = map[string]float64{}
			rep.KindByRes[res] = m
		}
		m[k] = byAttr[i]
	}

	slices.SortFunc(services, func(a, b int32) int { return strings.Compare(s.names[a], s.names[b]) })
	for _, svc := range services {
		lats := byService[svc]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sr := ServiceReport{Service: s.names[svc], Count: len(lats)}
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
		// order-insensitive: each bucket fills its own slot.
		for b, n := range buckets {
			sr.Histogram[b] = n
		}
		rep.Services = append(rep.Services, sr)
	}

	for _, sv := range s.series {
		sr := SeriesReport{
			Name:   sv.Name,
			TimeUs: make([]float64, 0, len(sv.Times)),
			Values: make([]float64, 0, len(sv.Values)),
		}
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

// WriteReport writes the report as indented JSON, handing w the whole
// document in one Write. encoding/json sorts map keys, so the bytes
// depend only on the recorded data.
func (s *Sink) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(s.BuildReport())
}
