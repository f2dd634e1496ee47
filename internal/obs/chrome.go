// Chrome trace-event export: renders the recorded span tree and
// utilization series in the trace-event JSON format that
// chrome://tracing and Perfetto load. Spans become async "b"/"e"
// event pairs, segments become "X" complete events, and utilization
// series become "C" counter events.
//
// The encoder is hand-written. It radix-sorts compact references into
// the sink's span and segment slabs by time, escapes each interned name
// once, then appends each event's JSON to one reused buffer, writing
// times straight from integer picoseconds. An export makes a fixed
// handful of allocations however many events it writes. Its contract
// is byte equality with the encoding/json writer it replaced (a
// json.Encoder with SetEscapeHTML(false) over a struct whose args were
// a map[string]any); chrome_ref_test.go keeps that writer as the
// reference the differential tests compare against.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
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

// traceRec is one span or segment event awaiting the timestamp sort: a
// reference into the sink's slabs, not a copy of the event. seg is a
// segment slab index, or recBegin or recEnd for the span's own events.
type traceRec struct {
	ts   sim.Time
	span int32
	seg  int32
	seq  int32 // position of the segment within its span
}

const (
	recEnd   = -2
	recBegin = -1
)

// traceRecs lists every span begin, span end, and segment in export
// order: by time; within one time, span ends innermost-first (larger
// ids), then begins outermost-first (parents precede their children),
// then segments by span and recorded order. It lays the records out in
// that tie order, so a stable sort by time alone yields the export
// order. Unended spans end at their start, as in Spans.
func (s *Sink) traceRecs() []traceRec {
	recs := make([]traceRec, 0, 2*int(s.nspans)+int(s.nsegs))
	for id := s.nspans - 1; id >= 0; id-- {
		recs = append(recs, traceRec{ts: s.span(id).endOrStart(), span: id, seg: recEnd})
	}
	for id := int32(0); id < s.nspans; id++ {
		recs = append(recs, traceRec{ts: s.span(id).start, span: id, seg: recBegin})
	}
	for id := int32(0); id < s.nspans; id++ {
		var seq int32
		for j := s.span(id).segHead; j >= 0; j = s.seg(j).next {
			recs = append(recs, traceRec{ts: s.seg(j).start, span: id, seg: j, seq: seq})
			seq++
		}
	}
	return sortByTime(recs)
}

// sortByTime sorts recs stably by ts with an LSD radix sort: one
// counting pass per byte of the offset from the earliest ts, skipping
// bytes every record shares. It returns the sorted records, in recs or
// in its scratch twin.
func sortByTime(recs []traceRec) []traceRec {
	if len(recs) < 2 {
		return recs
	}
	lo, hi := recs[0].ts, recs[0].ts
	for i := range recs {
		lo = min(lo, recs[i].ts)
		hi = max(hi, recs[i].ts)
	}
	key := func(r *traceRec) uint64 { return uint64(r.ts) - uint64(lo) }
	width := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	var counts [8][256]int
	for i := range recs {
		k := key(&recs[i])
		for d := 0; d < width; d++ {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := recs, make([]traceRec, len(recs))
	for d := 0; d < width; d++ {
		c, shift := &counts[d], 8*d
		if c[byte(key(&src[0])>>shift)] == len(src) {
			continue
		}
		next := 0
		for b, n := range c {
			c[b] = next
			next += n
		}
		for i := range src {
			b := byte(key(&src[i]) >> shift)
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// traceText is the fixed JSON text of each interned name and segment
// attribute, escaped once per export rather than once per event.
// pieces holds every name's quoted string, then each attribute's
// segment head and tail.
type traceText struct {
	pieces [][]byte
	names  int
}

// traceText renders the fixed text of s's names and attributes.
func (s *Sink) traceText() traceText {
	var buf []byte
	ends := make([]int, 0, len(s.names)+2*len(s.attrs))
	for _, n := range s.names {
		buf = appendJSONString(buf, n)
		ends = append(ends, len(buf))
	}
	for _, a := range s.attrs {
		// The event name is kind + ":" + resource; kind names are
		// plain ASCII, so only the resource needs escaping.
		res := s.names[a.res]
		buf = append(buf, '"')
		buf = append(buf, a.kind.String()...)
		buf = append(buf, ':')
		buf = appendJSONStringBody(buf, res)
		buf = append(buf, `","cat":"seg","ph":"X","ts":`...)
		ends = append(ends, len(buf))
		buf = append(buf, `,"pid":`...)
		buf = strconv.AppendInt(buf, pidRequests, 10)
		buf = append(buf, `,"tid":2,"args":{"resource":`...)
		buf = appendJSONString(buf, res)
		buf = append(buf, `,"seq":`...)
		ends = append(ends, len(buf))
	}
	t := traceText{pieces: make([][]byte, len(ends)), names: len(s.names)}
	start := 0
	for i, end := range ends {
		t.pieces[i] = buf[start:end:end]
		start = end
	}
	return t
}

// name is name i as a quoted JSON string.
func (t traceText) name(i int32) []byte { return t.pieces[i] }

// segHead is a segment event of attribute i from its name value
// through its "ts" key.
func (t traceText) segHead(i int32) []byte { return t.pieces[t.names+2*int(i)] }

// segTail runs from a segment event's "pid" key through its "seq" key.
func (t traceText) segTail(i int32) []byte { return t.pieces[t.names+2*int(i)+1] }

// traceChunk is the size at which the encoder hands its buffer to the
// writer and starts refilling it.
const traceChunk = 64 << 10

// traceEncoder appends trace events to buf and writes it out in
// chunks, or, with no writer, keeps each full chunk in chunks. The
// first error (a non-finite value or a failed write) sticks in err and
// ends the export.
type traceEncoder struct {
	w      io.Writer
	buf    []byte
	chunks [][]byte
	events int
	err    error
}

// newTraceBuf returns an empty chunk buffer, with room for the event
// that crosses traceChunk.
func newTraceBuf() []byte { return make([]byte, 0, traceChunk+4<<10) }

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
	if e.w == nil {
		e.chunks = append(e.chunks, e.buf)
		e.buf = newTraceBuf()
		return
	}
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

func (e *traceEncoder) micros(key string, t sim.Time) {
	e.buf = append(e.buf, key...)
	e.buf = appendMicros(e.buf, t)
}

// process writes the "ts", "pid" and "tid" fields every event carries.
func (e *traceEncoder) process(ts sim.Time, pid, tid int64) {
	e.micros(`,"ts":`, ts)
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
	e := &traceEncoder{w: w, buf: newTraceBuf()}
	s.encodeTrace(e)
	e.flush()
	return e.err
}

// renderChromeTrace returns the WriteChromeTrace bytes in one slice of
// exactly their length: the encoder keeps its full chunks instead of
// reusing one, and they are joined with a single copy.
func (s *Sink) renderChromeTrace() ([]byte, error) {
	e := &traceEncoder{buf: newTraceBuf()}
	s.encodeTrace(e)
	if e.err != nil {
		return nil, e.err
	}
	return bytes.Join(append(e.chunks, e.buf), nil), nil
}

// encodeTrace encodes the whole trace object into e.
func (s *Sink) encodeTrace(e *traceEncoder) {
	e.buf = append(e.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	if s != nil {
		if s.encodeTraceEvents(e) != nil {
			return
		}
	}
	e.buf = append(e.buf, "]}\n"...)
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
	text := s.traceText()
	for _, rec := range s.traceRecs() {
		sp := s.span(rec.span)
		switch rec.seg {
		case recBegin, recEnd:
			e.openName()
			e.buf = append(e.buf, text.name(sp.name)...)
			e.buf = append(e.buf, `,"cat":"`...)
			e.buf = append(e.buf, sp.kind.String()...)
			if rec.seg == recBegin {
				e.buf = append(e.buf, `","ph":"b"`...)
			} else {
				e.buf = append(e.buf, `","ph":"e"`...)
			}
			e.process(rec.ts, pidRequests, 1)
			e.int(`,"id":"s`, int64(rec.span))
			e.buf = append(e.buf, '"')
			if rec.seg == recBegin {
				// args keys in encoding/json's sorted map order.
				e.buf = append(e.buf, `,"args":{`...)
				if sp.parent >= 0 {
					e.int(`"parent":`, int64(sp.parent))
					e.buf = append(e.buf, ',')
				}
				e.int(`"span":`, int64(rec.span))
				e.buf = append(e.buf, '}')
			}
		default:
			seg := s.seg(rec.seg)
			e.openName()
			e.buf = append(e.buf, text.segHead(seg.attr)...)
			e.buf = appendMicros(e.buf, rec.ts)
			e.micros(`,"dur":`, seg.end-seg.start)
			e.buf = append(e.buf, text.segTail(seg.attr)...)
			e.buf = strconv.AppendInt(e.buf, int64(rec.seq), 10)
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

// appendMicros appends t picoseconds as appendJSONFloat(usec(t))
// writes them, straight from the integer: the whole microseconds, then
// up to six fraction digits with trailing zeros trimmed. Below 1e15 ps
// the exact quotient has at most 15 significant digits, and float64
// tells every such decimal apart, so it is the shortest form that
// round-trips, the one strconv writes. Negative times and times from
// 1e15 ps up take the float path.
func appendMicros(dst []byte, t sim.Time) []byte {
	if t < 0 || t >= 1e15 {
		dst, _ = appendJSONFloat(dst, usec(t)) // finite: no error
		return dst
	}
	dst = strconv.AppendInt(dst, int64(t/1e6), 10)
	frac := t % 1e6
	if frac == 0 {
		return dst
	}
	var digits [7]byte
	digits[0] = '.'
	for i := 6; i > 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(digits)
	for digits[n-1] == '0' {
		n--
	}
	return append(dst, digits[:n]...)
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
