// Package obs is the event-granular observability layer: it records a
// span tree per request (request → step → chain → accelerator entry,
// with queue / dispatch / compute / DMA / NoC / interrupt segments)
// plus time-sampled utilization series of the simulated resources, and
// exports them as Chrome trace-event JSON (chrome.go) and a structured
// per-run report (report.go).
//
// The whole API is nil-safe: every method on a nil *Sink or nil *Span
// is a no-op, so instrumented code paths pay only a nil check when
// observability is disabled. A Sink records one simulation run; it is
// single-threaded like the kernel that feeds it, and its exports are
// deterministic — the same run produces byte-identical output
// regardless of how many sibling simulations run concurrently.
package obs

import (
	"accelflow/internal/sim"
)

// Clock is the simulated time source; *sim.Kernel satisfies it.
type Clock interface {
	Now() sim.Time
}

// SpanKind classifies the levels of the per-request span tree.
type SpanKind uint8

const (
	// SpanRequest is the root: one end-to-end request.
	SpanRequest SpanKind = iota
	// SpanStep is one element of the service's execution path
	// (app-logic step, chain step, or parallel-chain step).
	SpanStep
	// SpanChain is one trace chain, including its ATM tails and forks.
	SpanChain
	// SpanEntry is one accelerator trace-execution instance as it
	// moves between queues, PEs, and dispatchers.
	SpanEntry
	// SpanFault is a root span covering one injected fault window
	// (degraded PEs, failed accelerator, removed A-DMA engines, stalled
	// manager/ATM, inflated NoC latency). Not part of any request tree.
	SpanFault
	// SpanControl is a root span covering one controller scaling
	// decision (internal/control); its segment spans the period spent
	// at the previous level. Not part of any request tree.
	SpanControl
)

// String names the span kind for exports.
func (k SpanKind) String() string {
	switch k {
	case SpanRequest:
		return "request"
	case SpanStep:
		return "step"
	case SpanChain:
		return "chain"
	case SpanEntry:
		return "entry"
	case SpanFault:
		return "fault"
	case SpanControl:
		return "control"
	}
	return "span"
}

// SegKind classifies the time segments attached to spans.
type SegKind uint8

const (
	// SegQueue is time waiting in a queue (accelerator input queue,
	// core run queue, A-DMA pool, software queue pickup).
	SegQueue SegKind = iota
	// SegDispatch is orchestration work: enqueue instructions, output
	// dispatcher passes, manager engagements, ATM reads.
	SegDispatch
	// SegCompute is PE occupancy (load + wipe + compute).
	SegCompute
	// SegDMA is data movement through memory controllers or the LLC.
	SegDMA
	// SegNoC is on-package interconnect occupancy of an A-DMA move.
	SegNoC
	// SegInterrupt is CPU interrupt/exception handling (CPU-centric
	// hops, page faults).
	SegInterrupt
	// SegRemote is waiting for the far side of a nested RPC/DB/HTTP
	// message.
	SegRemote
	// SegNotify is the user-level completion notification delay.
	SegNotify
	// SegCPU is application logic or fallback trace execution on cores.
	SegCPU
	// SegFault marks a fault-injection window on a SpanFault span, so
	// Perfetto traces show when and where faults were active.
	SegFault
	// SegControl marks the interval a SpanControl decision covers (the
	// time spent at the previous scaling level).
	SegControl
)

// String names the segment kind for exports.
func (k SegKind) String() string {
	switch k {
	case SegQueue:
		return "queue"
	case SegDispatch:
		return "dispatch"
	case SegCompute:
		return "compute"
	case SegDMA:
		return "dma"
	case SegNoC:
		return "noc"
	case SegInterrupt:
		return "interrupt"
	case SegRemote:
		return "remote"
	case SegNotify:
		return "notify"
	case SegCPU:
		return "cpu"
	case SegFault:
		return "fault"
	case SegControl:
		return "control"
	}
	return "seg"
}

// Seg is one attributed time interval on a span, tied to the resource
// that was held or waited on.
type Seg struct {
	Kind     SegKind
	Resource string
	Start    sim.Time
	End      sim.Time
}

// spanRec is the stored form of a span, free of pointers so the GC
// neither scans the span slab nor pays write barriers filling it.
// Parent is -1 for roots, and name indexes Sink.names. Its segments
// live in the segment slab as a linked list (segHead/segTail; -1 =
// none).
type spanRec struct {
	start   sim.Time
	end     sim.Time
	parent  int32
	segHead int32
	segTail int32
	name    int32
	kind    SpanKind
	ended   bool
}

// segRec is one segment slab cell, free of pointers like spanRec: the
// interval, the index of the owning span's next segment (-1 = last),
// and its interned (resource, kind) attribute (Sink.attrs).
type segRec struct {
	start sim.Time
	end   sim.Time
	next  int32
	attr  int32
}

// segAttr is one distinct (resource, kind) pair of the recorded
// segments; res indexes Sink.names.
type segAttr struct {
	res  int32
	kind SegKind
}

// attrKey looks a segAttr up by the resource name Seg receives.
type attrKey struct {
	res  string
	kind SegKind
}

// Slab chunk sizes. The span and segment slabs grow a fixed-size chunk
// at a time, so growth never copies or re-zeroes what is recorded.
const (
	spanShift = 10
	segShift  = 12
	spanChunk = 1 << spanShift
	segChunk  = 1 << segShift
)

// SpanData is the exported, immutable view of one recorded span.
type SpanData struct {
	ID     int32
	Parent int32 // -1 for request roots
	Kind   SpanKind
	Name   string
	Start  sim.Time
	End    sim.Time
	Segs   []Seg
}

// Series is one time-sampled value stream (e.g. a PE utilization
// timeline).
type Series struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// Sink records one simulation run's spans and series. Create with New,
// attach a clock with SetClock (the engine does this when built with
// engine.Params.Obs), then export with WriteChromeTrace / WriteReport.
//
// A nil *Sink is valid everywhere and records nothing.
type Sink struct {
	clock Clock

	// spans and segs are the chunked slabs; span i is
	// spans[i>>spanShift][i&(spanChunk-1)], and likewise for segments.
	spans  [][]spanRec
	segs   [][]segRec
	nspans int32
	nsegs  int32

	// names interns span names and segment resources; attrs interns the
	// (resource, kind) pairs segments carry.
	names   []string
	nameIdx map[string]int32
	attrs   []segAttr
	attrIdx map[attrKey]int32

	series []*Series
	byName map[string]*Series

	// handles is the current chunk of the Span-handle arena. Spans are
	// created once per request/step/chain/entry on the hot path;
	// carving handles out of fixed-size chunks replaces one heap object
	// per span with one per handleChunk spans.
	handles []Span
}

// handleChunk is the Span-handle arena chunk size.
const handleChunk = 256

// sampleInterval is the utilization sampling period. The sampler
// itself is driven by the harness (workload.RunSpec) via
// sim.Kernel.Every.
const sampleInterval = 20 * sim.Microsecond

// New returns an empty Sink.
func New() *Sink {
	return &Sink{
		nameIdx: map[string]int32{},
		attrIdx: map[attrKey]int32{},
		byName:  map[string]*Series{},
	}
}

// Enabled reports whether the sink is recording (non-nil).
func (s *Sink) Enabled() bool { return s != nil }

// SampleInterval returns the sampling period (0 when nil).
func (s *Sink) SampleInterval() sim.Time {
	if s == nil {
		return 0
	}
	return sampleInterval
}

// SetClock binds the simulated time source. Idempotent; later calls
// with the same clock are no-ops, and a nil receiver ignores it.
func (s *Sink) SetClock(c Clock) {
	if s == nil {
		return
	}
	s.clock = c
}

func (s *Sink) now() sim.Time {
	if s.clock == nil {
		return 0
	}
	return s.clock.Now()
}

// Span is a live handle to a recorded span. A nil *Span is valid and
// all its methods are no-ops, which is how disabled observability
// flows through instrumented code for free.
type Span struct {
	sink *Sink
	id   int32
}

// span returns the stored record of span id.
func (s *Sink) span(id int32) *spanRec {
	return &s.spans[id>>spanShift][id&(spanChunk-1)]
}

// seg returns the stored record of segment i.
func (s *Sink) seg(i int32) *segRec {
	return &s.segs[i>>segShift][i&(segChunk-1)]
}

// intern returns the index of name in s.names, adding it on first use.
func (s *Sink) intern(name string) int32 {
	i, ok := s.nameIdx[name]
	if !ok {
		i = int32(len(s.names))
		s.names = append(s.names, name)
		s.nameIdx[name] = i
	}
	return i
}

// attr returns the index of the (resource, kind) pair in s.attrs,
// adding it on first use.
func (s *Sink) attr(resource string, kind SegKind) int32 {
	k := attrKey{resource, kind}
	i, ok := s.attrIdx[k]
	if !ok {
		i = int32(len(s.attrs))
		s.attrs = append(s.attrs, segAttr{res: s.intern(resource), kind: kind})
		s.attrIdx[k] = i
	}
	return i
}

func (s *Sink) newSpan(parent int32, kind SpanKind, name string) *Span {
	id := s.nspans
	if id&(spanChunk-1) == 0 {
		s.spans = append(s.spans, make([]spanRec, spanChunk))
	}
	s.nspans++
	*s.span(id) = spanRec{
		start:   s.now(),
		parent:  parent,
		segHead: -1,
		segTail: -1,
		name:    s.intern(name),
		kind:    kind,
	}
	if len(s.handles) == cap(s.handles) {
		s.handles = make([]Span, 0, handleChunk)
	}
	s.handles = append(s.handles, Span{sink: s, id: id})
	return &s.handles[len(s.handles)-1]
}

// BeginRequest opens a root request span. Returns nil on a nil sink.
func (s *Sink) BeginRequest(service string) *Span {
	if s == nil {
		return nil
	}
	return s.newSpan(-1, SpanRequest, service)
}

// BeginFault opens a root fault-window span (e.g.
// "fault/pe-degrade/Cmp"). The injector ends it when the window
// clears, after attaching a SegFault segment covering the window.
// Returns nil on a nil sink.
func (s *Sink) BeginFault(name string) *Span {
	if s == nil {
		return nil
	}
	return s.newSpan(-1, SpanFault, name)
}

// BeginControl opens a root controller-decision span (e.g.
// "control/scale-up/pe@+2"). The controller ends it after attaching a
// SegControl segment covering the period at the previous level.
// Returns nil on a nil sink.
func (s *Sink) BeginControl(name string) *Span {
	if s == nil {
		return nil
	}
	return s.newSpan(-1, SpanControl, name)
}

// Child opens a sub-span under sp. Returns nil on a nil span.
func (sp *Span) Child(kind SpanKind, name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.sink.newSpan(sp.id, kind, name)
}

// End closes the span at the current simulated time. Ending twice
// keeps the first end (spans are closed exactly once on the happy
// path; the guard makes instrumentation mistakes harmless).
func (sp *Span) End() {
	if sp == nil {
		return
	}
	r := sp.sink.span(sp.id)
	if r.ended {
		return
	}
	r.ended = true
	r.end = sp.sink.now()
}

// Seg attaches one attributed interval to the span. Zero-length
// segments are dropped; inverted intervals are a modeling bug and are
// clamped to empty rather than panicking mid-simulation.
func (sp *Span) Seg(kind SegKind, resource string, start, end sim.Time) {
	if sp == nil || end <= start {
		return
	}
	sp.sink.addSeg(sp.id, kind, resource, start, end)
}

// addSeg appends one segment to span id's list. Seg stays small enough
// to inline, so a run without a sink pays only its nil check.
func (s *Sink) addSeg(id int32, kind SegKind, resource string, start, end sim.Time) {
	idx := s.nsegs
	if idx&(segChunk-1) == 0 {
		s.segs = append(s.segs, make([]segRec, segChunk))
	}
	s.nsegs++
	*s.seg(idx) = segRec{start: start, end: end, next: -1, attr: s.attr(resource, kind)}
	r := s.span(id)
	if r.segTail >= 0 {
		s.seg(r.segTail).next = idx
	} else {
		r.segHead = idx
	}
	r.segTail = idx
}

// QueuedSeg records a resource engagement that began waiting at t0 and
// just finished holding the resource for hold: the wait portion (if
// any) becomes a queue segment and the hold portion a segment of the
// given kind. It reads the sink clock for "now", matching the
// engine's `t0 := K.Now(); res.Do(hold, func(){ ... })` idiom.
func (sp *Span) QueuedSeg(kind SegKind, resource string, t0, hold sim.Time) {
	if sp == nil {
		return
	}
	now := sp.sink.now()
	sp.Seg(SegQueue, resource, t0, now-hold)
	sp.Seg(kind, resource, now-hold, now)
}

// Sample appends one point to the named series, creating it on first
// use. Series identity is by name; creation order is preserved for
// deterministic export.
func (s *Sink) Sample(name string, t sim.Time, v float64) {
	if s == nil {
		return
	}
	sr, ok := s.byName[name]
	if !ok {
		sr = &Series{Name: name}
		s.byName[name] = sr
		s.series = append(s.series, sr)
	}
	sr.Times = append(sr.Times, t)
	sr.Values = append(sr.Values, v)
}

// Spans returns immutable copies of all recorded spans in creation
// order. Unended spans report End == Start.
func (s *Sink) Spans() []SpanData {
	if s == nil {
		return nil
	}
	out := make([]SpanData, s.nspans)
	for id := range out {
		r := s.span(int32(id))
		var segs []Seg
		for j := r.segHead; j >= 0; {
			g := s.seg(j)
			a := s.attrs[g.attr]
			segs = append(segs, Seg{Kind: a.kind, Resource: s.names[a.res], Start: g.start, End: g.end})
			j = g.next
		}
		out[id] = SpanData{
			ID: int32(id), Parent: r.parent, Kind: r.kind, Name: s.names[r.name],
			Start: r.start, End: r.endOrStart(),
			Segs: segs,
		}
	}
	return out
}

// endOrStart is the span's end, or its start while it is unended.
func (r *spanRec) endOrStart() sim.Time {
	if !r.ended {
		return r.start
	}
	return r.end
}

// SeriesList returns the recorded utilization series in creation order.
func (s *Sink) SeriesList() []*Series {
	if s == nil {
		return nil
	}
	return s.series
}

// SpanCount reports recorded spans (0 on nil).
func (s *Sink) SpanCount() int {
	if s == nil {
		return 0
	}
	return int(s.nspans)
}
