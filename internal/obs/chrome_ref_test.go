package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"accelflow/internal/sim"
)

// This file keeps the encoding/json trace writer that WriteChromeTrace
// replaced. It is the reference the differential tests hold the
// hand-written encoder to: same bytes, or the same failure.

// WriteChromeTraceRef is the reference writer, exported to the
// external test package, which can drive real workload runs.
var WriteChromeTraceRef = writeChromeTraceRef

// refChromeEvent is one trace-event record. Field order is fixed by
// the struct, and encoding/json emits struct fields in declaration
// order and map keys sorted.
type refChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
	Scope string         `json:"s,omitempty"`
}

func writeChromeTraceRef(s *Sink, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for i, ev := range refChromeEvents(s) {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func refChromeEvents(s *Sink) []refChromeEvent {
	var evs []refChromeEvent
	if s == nil {
		return evs
	}
	evs = append(evs,
		refMetaEvent(pidRequests, 0, "process_name", "requests"),
		refMetaEvent(pidUtil, 0, "process_name", "utilization"),
	)

	type rankedEvent struct {
		ev   refChromeEvent
		ts   sim.Time
		rank int   // within a timestamp: ends(0) before begins(1) before segs(2)
		id   int32 // final tie-break, direction depends on rank
	}
	var ranked []rankedEvent
	for _, sd := range s.Spans() {
		cat := sd.Kind.String()
		id := fmt.Sprintf("s%d", sd.ID)
		args := map[string]any{"span": sd.ID}
		if sd.Parent >= 0 {
			args["parent"] = sd.Parent
		}
		ranked = append(ranked, rankedEvent{
			ev: refChromeEvent{
				Name: sd.Name, Cat: cat, Ph: "b", TS: usec(sd.Start),
				PID: pidRequests, TID: 1, ID: id, Args: args,
			},
			ts: sd.Start, rank: 1, id: sd.ID,
		})
		ranked = append(ranked, rankedEvent{
			ev: refChromeEvent{
				Name: sd.Name, Cat: cat, Ph: "e", TS: usec(sd.End),
				PID: pidRequests, TID: 1, ID: id,
			},
			ts: sd.End, rank: 0, id: sd.ID,
		})
		for si, seg := range sd.Segs {
			dur := usec(seg.End - seg.Start)
			ranked = append(ranked, rankedEvent{
				ev: refChromeEvent{
					Name: seg.Kind.String() + ":" + seg.Resource,
					Cat:  "seg", Ph: "X", TS: usec(seg.Start), Dur: &dur,
					PID: pidRequests, TID: 2,
					Args: map[string]any{"span": sd.ID, "seq": si, "resource": seg.Resource},
				},
				ts: seg.Start, rank: 2, id: sd.ID,
			})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := &ranked[i], &ranked[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		if a.rank == 0 {
			return a.id > b.id
		}
		return a.id < b.id
	})
	for _, r := range ranked {
		evs = append(evs, r.ev)
	}

	for si, sr := range s.SeriesList() {
		evs = append(evs, refMetaEvent(pidUtil, si+1, "thread_name", sr.Name))
		for i := range sr.Times {
			evs = append(evs, refChromeEvent{
				Name: sr.Name, Ph: "C", TS: usec(sr.Times[i]),
				PID: pidUtil, TID: si + 1,
				Args: map[string]any{"value": sr.Values[i]},
			})
		}
	}
	return evs
}

func refMetaEvent(pid, tid int, kind, name string) refChromeEvent {
	return refChromeEvent{
		Name: kind, Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	}
}
