// Chrome trace-event export: renders the recorded span tree and
// utilization series in the trace-event JSON format that
// chrome://tracing and Perfetto load. Spans become async "b"/"e"
// event pairs, segments become "X" complete events, and utilization
// series become "C" counter events.
//
// The encoder is hand-written. It sorts compact references into the
// sink's span and segment slabs, then appends each event's JSON to one
// reused buffer with strconv, so an export makes two allocations (the
// records and the buffer) however many events it writes. Its contract is byte
// equality with the encoding/json writer it replaced (a json.Encoder
// with SetEscapeHTML(false) over a struct whose args were a
// map[string]any); chrome_ref_test.go keeps that writer as the
// reference the differential tests compare against.
package obs

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"accelflow/internal/sim"
)

// Synthetic pid/tid layout for the trace viewer: spans and segments
// live in one "requests" process, counters in a "utilization" process.
const (
	pidRequests = 1
	pidUtil     = 2
)

// usec converts integer picoseconds to the float microseconds the
// trace-event format expects.
func usec(t sim.Time) float64 { return float64(t) / 1e6 }

// Within one timestamp, span ends sort before span begins, and begins
// before segments.
const (
	rankEnd uint8 = iota
	rankBegin
	rankSeg
)

// traceRec is one span or segment event awaiting the timestamp sort: a
// reference into the sink's slabs, not a copy of the event.
type traceRec struct {
	ts   sim.Time
	span int32
	seg  int32 // segment slab index (rankSeg only)
	seq  int32 // position of the segment within its span (rankSeg only)
	rank uint8
}

// cmpTraceRec orders events by time, then rank. Same-timestamp begins
// open outermost-first (parent ids are smaller), same-timestamp ends
// close innermost-first, and one span's segments keep their recorded
// order. The key is unique, so an unstable sort yields one fixed order.
func cmpTraceRec(a, b traceRec) int {
	if a.ts != b.ts {
		return cmp.Compare(a.ts, b.ts)
	}
	if a.rank != b.rank {
		return cmp.Compare(a.rank, b.rank)
	}
	if a.span != b.span {
		if a.rank == rankEnd {
			return cmp.Compare(b.span, a.span)
		}
		return cmp.Compare(a.span, b.span)
	}
	return cmp.Compare(a.seq, b.seq)
}

// traceRecs lists every span begin, span end, and segment in export
// order. Unended spans end at their start, as in Spans.
func (s *Sink) traceRecs() []traceRec {
	recs := make([]traceRec, 0, 2*len(s.spans)+len(s.segs))
	for i := range s.spans {
		r := &s.spans[i]
		end := r.end
		if !r.ended {
			end = r.start
		}
		recs = append(recs,
			traceRec{ts: r.start, span: r.id, rank: rankBegin},
			traceRec{ts: end, span: r.id, rank: rankEnd})
		var seq int32
		for j := r.segHead; j >= 0; j = s.segs[j].next {
			recs = append(recs, traceRec{ts: s.segs[j].seg.Start, span: r.id, seg: j, seq: seq, rank: rankSeg})
			seq++
		}
	}
	slices.SortFunc(recs, cmpTraceRec)
	return recs
}

// traceChunk is the size at which the encoder hands its buffer to the
// writer and starts refilling it.
const traceChunk = 64 << 10

// traceEncoder appends trace events to buf and writes it out in
// chunks. The first error (a non-finite value or a failed write)
// sticks in err and ends the export.
type traceEncoder struct {
	w      io.Writer
	buf    []byte
	events int
	err    error
}

// open starts one event: the separator, then its name.
func (e *traceEncoder) open(name string) {
	e.openName()
	e.buf = appendJSONString(e.buf, name)
}

// openName starts one event up to its "name" value.
func (e *traceEncoder) openName() {
	if e.events > 0 {
		e.buf = append(e.buf, ',')
	}
	e.events++
	e.buf = append(e.buf, `{"name":`...)
}

// close ends one event with the newline json.Encoder wrote after each
// value (it keeps the file diffable), writing a full chunk out.
func (e *traceEncoder) close() error {
	e.buf = append(e.buf, "}\n"...)
	if len(e.buf) >= traceChunk {
		e.flush()
	}
	return e.err
}

func (e *traceEncoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *traceEncoder) str(key, v string) {
	e.buf = append(e.buf, key...)
	e.buf = appendJSONString(e.buf, v)
}

func (e *traceEncoder) int(key string, v int64) {
	e.buf = append(e.buf, key...)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

func (e *traceEncoder) float(key string, v float64) {
	e.buf = append(e.buf, key...)
	var err error
	if e.buf, err = appendJSONFloat(e.buf, v); err != nil && e.err == nil {
		e.err = err
	}
}

// process writes the "ts", "pid" and "tid" fields every event carries.
func (e *traceEncoder) process(ts sim.Time, pid, tid int64) {
	e.float(`,"ts":`, usec(ts))
	e.int(`,"pid":`, pid)
	e.int(`,"tid":`, tid)
}

// meta writes one "M" metadata event naming a process or thread.
func (e *traceEncoder) meta(pid, tid int64, kind, name string) error {
	e.open(kind)
	e.buf = append(e.buf, `,"ph":"M"`...)
	e.process(0, pid, tid)
	e.str(`,"args":{"name":`, name)
	e.buf = append(e.buf, '}')
	return e.close()
}

// WriteChromeTrace writes the run as a Chrome trace-event JSON object
// ({"traceEvents": [...], ...}). Safe on a nil sink (writes an empty
// trace). Output bytes depend only on the recorded data. A non-finite
// utilization sample is an error, as it was for encoding/json.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	e := &traceEncoder{w: w, buf: make([]byte, 0, traceChunk+4<<10)}
	e.buf = append(e.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	if s != nil {
		if err := s.encodeTraceEvents(e); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, "]}\n"...)
	e.flush()
	return e.err
}

// encodeTraceEvents writes the process metadata, the sorted span and
// segment events, then the counters, one tid per series in series
// creation order.
func (s *Sink) encodeTraceEvents(e *traceEncoder) error {
	if err := e.meta(pidRequests, 0, "process_name", "requests"); err != nil {
		return err
	}
	if err := e.meta(pidUtil, 0, "process_name", "utilization"); err != nil {
		return err
	}

	// Each span gets its own async id so b/e pairs nest trivially
	// (Chrome matches async events by cat+id; distinct ids mean the
	// per-id LIFO rule can never be violated by interleaved spans).
	for _, rec := range s.traceRecs() {
		sp := &s.spans[rec.span]
		switch rec.rank {
		case rankBegin, rankEnd:
			e.open(sp.name)
			e.buf = append(e.buf, `,"cat":"`...)
			e.buf = append(e.buf, sp.kind.String()...)
			if rec.rank == rankBegin {
				e.buf = append(e.buf, `","ph":"b"`...)
			} else {
				e.buf = append(e.buf, `","ph":"e"`...)
			}
			e.process(rec.ts, pidRequests, 1)
			e.int(`,"id":"s`, int64(rec.span))
			e.buf = append(e.buf, '"')
			if rec.rank == rankBegin {
				// args keys in encoding/json's sorted map order.
				e.buf = append(e.buf, `,"args":{`...)
				if sp.parent >= 0 {
					e.int(`"parent":`, int64(sp.parent))
					e.buf = append(e.buf, ',')
				}
				e.int(`"span":`, int64(rec.span))
				e.buf = append(e.buf, '}')
			}
		case rankSeg:
			seg := &s.segs[rec.seg].seg
			// The name is kind + ":" + resource; kind names are plain
			// ASCII, so only the resource needs escaping.
			e.openName()
			e.buf = append(e.buf, '"')
			e.buf = append(e.buf, seg.Kind.String()...)
			e.buf = append(e.buf, ':')
			e.buf = appendJSONStringBody(e.buf, seg.Resource)
			e.buf = append(e.buf, `","cat":"seg","ph":"X"`...)
			e.float(`,"ts":`, usec(rec.ts))
			e.float(`,"dur":`, usec(seg.End-seg.Start))
			e.int(`,"pid":`, pidRequests)
			e.int(`,"tid":`, 2)
			e.str(`,"args":{"resource":`, seg.Resource)
			e.int(`,"seq":`, int64(rec.seq))
			e.int(`,"span":`, int64(rec.span))
			e.buf = append(e.buf, '}')
		}
		if err := e.close(); err != nil {
			return err
		}
	}

	for si, sr := range s.series {
		tid := int64(si + 1)
		if err := e.meta(pidUtil, tid, "thread_name", sr.Name); err != nil {
			return err
		}
		for i, t := range sr.Times {
			e.open(sr.Name)
			e.buf = append(e.buf, `,"ph":"C"`...)
			e.process(t, pidUtil, tid)
			e.float(`,"args":{"value":`, sr.Values[i])
			e.buf = append(e.buf, '}')
			if err := e.close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendJSONFloat appends f as encoding/json writes a float64: like
// strconv's shortest 'f' form, switching to 'e' below 1e-6 and from
// 1e21 up, with a one-digit negative exponent's leading zero dropped
// (e-07 becomes e-7). NaN and ±Inf have no JSON form and are an error.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("obs: unsupported trace value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONString appends s as a quoted JSON string, escaped exactly
// as encoding/json does with SetEscapeHTML(false).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONStringBody(dst, s)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// appendJSONStringBody appends s escaped but unquoted. Control bytes,
// '"' and '\\' are escaped, invalid UTF-8 becomes \ufffd, and U+2028
// and U+2029 are escaped for JSONP safety; everything else, '<', '>'
// and '&' included, is copied through.
func appendJSONStringBody(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}
