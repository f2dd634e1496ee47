// Package control is the dynamic-control subsystem: deterministic,
// seed-derived control loops that run inside the simulation clock and
// close the loop the fault layer opened — where fault windows resize
// resources on a fixed schedule, a controller reacts to what the run
// actually observes.
//
// Three policies compose under one Spec:
//
//   - Autoscale: a periodic decision tick samples utilization (and,
//     when an SLO is set, a sliding-window P99) and grows or shrinks a
//     capacity pool — the PE pools or the core pool — through the same
//     SetServers machinery fault windows use, with hysteresis
//     (separate up/down thresholds), a cooldown between actions, and
//     hard scale bounds.
//   - Shed: request-layer load shedding, probabilistic (a dedicated
//     DeriveSeed(seed, "control/shed") stream) and/or queue-depth
//     triggered on the controller-observed outstanding count.
//   - Retry: the run's retry budget for timed-out requests: one retry
//     per request, after a fixed backoff.
//
// Determinism contract, mirroring internal/fault: every decision is a
// pure function of (Spec, seed, observed simulation state), so
// controlled runs are bit-identical at any sweep parallelism. A
// controller whose thresholds can never fire (UpUtil above 1, negative
// DownUtil, MaxAdd/MaxRemove zero) performs zero actions and draws from
// no RNG stream, and a ShedSpec with Prob 0 never creates its stream —
// so an effectively-disabled controller leaves latencies, counters, and
// recorders bit-identical to no controller at all (the decision tick
// can only extend the run's final timestamp by at most one interval,
// exactly like the obs utilization sampler).
package control

import (
	"fmt"
	"math"
	"sort"

	"accelflow/internal/metrics"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
)

// Autoscale targets.
const (
	// TargetPE scales every accelerator kind's PE pool in lockstep
	// (each pool offset by the same server count from its configured
	// base, so per-kind PE mixes keep their shape).
	TargetPE = "pe"
	// TargetCores scales the CPU core pool.
	TargetCores = "cores"
)

// Autoscale loop constants.
const (
	// TickInterval is the decision tick period.
	TickInterval = 50 * sim.Microsecond
	// window is the sliding signal window: utilization samples and
	// completion latencies older than it are evicted before each
	// decision.
	window = 4 * TickInterval
	// cooldownTicks is the number of ticks after an action during
	// which no further action fires.
	cooldownTicks = 2
)

// retryBackoff is the delay between a request's timeout and its one
// retry.
const retryBackoff = 20 * sim.Microsecond

// Spec configures one run's controller. All three sections are
// optional; a spec with none attached is inert. The spec is plain
// data and its JSON joins workload.ObservedParams.Key, so controller
// config is part of an observed run's result identity.
type Spec struct {
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	Shed      *ShedSpec      `json:"shed,omitempty"`
	Retry     *RetrySpec     `json:"retry,omitempty"`
}

// AutoscaleSpec configures the scaling loop.
type AutoscaleSpec struct {
	// Target is "pe" or "cores".
	Target string `json:"target"`
	// UpUtil scales up when the windowed utilization reaches it. Must
	// be positive; utilization is clamped to [0,1], so any value above
	// 1 can never fire (the "+inf" disable spelling — JSON cannot
	// carry real infinities).
	UpUtil float64 `json:"upUtil"`
	// DownUtil scales down when the windowed utilization falls to it
	// (and no SLO breach is in progress). Must be below UpUtil; a
	// negative value can never fire (the "-inf" spelling).
	DownUtil float64 `json:"downUtil"`
	// SLOUs, when positive, is the P99 target in microseconds: a
	// windowed P99 above it counts as a scale-up signal regardless of
	// utilization, and every breaching tick is recorded in Stats
	// (BreachTicks/LastBreach), which is what the recovery experiment
	// measures. 0 disables latency tracking entirely.
	SLOUs float64 `json:"sloUs,omitempty"`
	// MaxAdd is the scale-up ceiling: at most this many servers above
	// each pool's base. 0 forbids scaling up.
	MaxAdd int `json:"maxAdd"`
	// MaxRemove is the scale-down depth below base. Pools are floored
	// at one server regardless. 0 forbids scaling down.
	MaxRemove int `json:"maxRemove"`
}

// ShedSpec configures request-layer load shedding.
type ShedSpec struct {
	// Prob sheds each arrival with this probability, drawn from the
	// dedicated DeriveSeed(seed, "control/shed") stream. 0 disables
	// and never creates the stream.
	Prob float64 `json:"prob,omitempty"`
	// Queue sheds arrivals while the controller-observed outstanding
	// request count is at or above it. 0 disables.
	Queue int `json:"queue,omitempty"`
}

// RetrySpec configures the run's retry budget for timed-out requests.
type RetrySpec struct {
	// Budget is the total retry allowance for the run.
	Budget int `json:"budget"`
}

// Validate rejects out-of-range parameters with caller-facing
// messages; both binaries and the serving plane call it before
// admitting work.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if a := s.Autoscale; a != nil {
		switch a.Target {
		case TargetPE, TargetCores:
		default:
			return fmt.Errorf("control: autoscale target must be %q or %q, got %q",
				TargetPE, TargetCores, a.Target)
		}
		switch {
		case !finite(a.UpUtil) || !finite(a.DownUtil) || !finite(a.SLOUs):
			// NaN fails every comparison below, so it must be caught first.
			return fmt.Errorf("control: UpUtil, DownUtil and SLOUs must be finite, got %v/%v/%v", a.UpUtil, a.DownUtil, a.SLOUs)
		case a.UpUtil <= 0:
			return fmt.Errorf("control: UpUtil must be positive (use a value above 1 to never scale up), got %v", a.UpUtil)
		case a.DownUtil >= a.UpUtil:
			return fmt.Errorf("control: DownUtil (%v) must be below UpUtil (%v)", a.DownUtil, a.UpUtil)
		case a.SLOUs < 0:
			return fmt.Errorf("control: SLOUs must be non-negative, got %v", a.SLOUs)
		case a.MaxAdd < 0 || a.MaxRemove < 0:
			return fmt.Errorf("control: autoscale maxAdd/maxRemove must be non-negative")
		}
	}
	if sh := s.Shed; sh != nil {
		if !(sh.Prob >= 0 && sh.Prob <= 1) {
			return fmt.Errorf("control: shed probability must be in [0,1], got %v", sh.Prob)
		}
		if sh.Queue < 0 {
			return fmt.Errorf("control: shed queue depth must be non-negative, got %d", sh.Queue)
		}
	}
	if r := s.Retry; r != nil && r.Budget < 0 {
		return fmt.Errorf("control: retry budget must be non-negative, got %d", r.Budget)
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Stats counts controller activity over one run.
type Stats struct {
	// Ticks is the number of executed decision ticks.
	Ticks uint64
	// ScaleUps/ScaleDowns count applied actions; Level is the final
	// offset from base in servers.
	ScaleUps   uint64
	ScaleDowns uint64
	Level      int
	// ShedRandom/ShedQueue split shed requests by trigger.
	ShedRandom uint64
	ShedQueue  uint64
	// Retries counts granted retries; RetriesExhausted counts
	// timed-out completions denied a retry (budget spent, or the
	// request was already retried).
	Retries          uint64
	RetriesExhausted uint64
	// BreachTicks counts ticks whose windowed P99 exceeded SLOUs;
	// LastBreach is the simulated time of the most recent such tick.
	BreachTicks uint64
	LastBreach  sim.Time
}

// Pool is one scalable capacity pool. The actuator is Res.SetServers,
// which sets the pool's nominal level: a fault window holding servers
// offline (Resource.SetOffline) keeps its hold across the change, so
// the two compose inside the resource.
type Pool struct {
	Res  *sim.Resource
	Base int
}

// Controller owns one run's control state. Build with New, wire the
// actuator with AttachPools, then drive the decision loop from the
// simulation clock (Tick, every TickInterval) and the request path (Shed /
// NoteSubmit / NoteDone / RetryAfter). Controllers are single-threaded
// like the kernel that feeds them and cover exactly one run.
type Controller struct {
	Spec  Spec
	Stats Stats

	sink *obs.Sink

	shedRNG *sim.RNG // created only when Shed.Prob > 0 (zero-RNG contract)

	outstanding int

	// Autoscale state.
	loop       loop
	pools      []Pool
	lastBusy   []sim.Time
	levelSince sim.Time

	retryLeft int
}

// New builds a controller. Derive the seed from the run seed
// (sim.DeriveSeed(runSeed, "control")) so the shed stream never
// aliases workload or fault streams. The spec must already be
// validated.
func New(spec Spec, seed int64) *Controller {
	c := &Controller{Spec: spec}
	if a := spec.Autoscale; a != nil {
		c.loop = loop{spec: *a}
	}
	if sh := spec.Shed; sh != nil && sh.Prob > 0 {
		c.shedRNG = sim.NewRNG(sim.DeriveSeed(seed, "control/shed"))
	}
	if r := spec.Retry; r != nil {
		c.retryLeft = r.Budget
	}
	return c
}

// BindObs attaches the observability sink (nil-safe) so scaling
// decisions export as root spans and the level/outstanding signals as
// sampled series.
func (c *Controller) BindObs(sink *obs.Sink) { c.sink = sink }

// AttachPools wires the actuator: each decision applies
// base+offset (floored at one server by SetServers) to every pool.
func (c *Controller) AttachPools(pools []Pool) {
	c.pools = pools
	c.lastBusy = make([]sim.Time, len(pools))
	for i, p := range pools {
		c.lastBusy[i] = p.Res.BusyTime
	}
}

// NeedsTick reports whether the controller has a decision loop to
// drive (an autoscale section with an attached actuator).
func (c *Controller) NeedsTick() bool {
	return c.Spec.Autoscale != nil && c.pools != nil
}

// NoteSubmit records one request entering the system.
func (c *Controller) NoteSubmit() { c.outstanding++ }

// NoteDone records one request completing: the outstanding count
// drops and, when SLO tracking is on, the latency joins the sliding
// P99 window.
func (c *Controller) NoteDone(now sim.Time, latency sim.Time) {
	c.outstanding--
	if a := c.Spec.Autoscale; a != nil && a.SLOUs > 0 {
		c.loop.observeLatency(now, latency.Micros())
	}
}

// Shed decides one arrival's fate. Queue-depth shedding is checked
// first (it draws nothing); probabilistic shedding draws one value
// from the dedicated stream per arrival that reaches it.
func (c *Controller) Shed() bool {
	sh := c.Spec.Shed
	if sh == nil {
		return false
	}
	if sh.Queue > 0 && c.outstanding >= sh.Queue {
		c.Stats.ShedQueue++
		return true
	}
	if sh.Prob > 0 && c.shedRNG.Float64() < sh.Prob {
		c.Stats.ShedRandom++
		return true
	}
	return false
}

// RetryAfter decides whether a timed-out request may go again,
// consuming the run's budget and returning the backoff delay. A
// request that was already retried gets no second retry.
func (c *Controller) RetryAfter(retried bool) (sim.Time, bool) {
	r := c.Spec.Retry
	if r == nil || r.Budget <= 0 {
		return 0, false
	}
	if retried || c.retryLeft <= 0 {
		c.Stats.RetriesExhausted++
		return 0, false
	}
	c.retryLeft--
	c.Stats.Retries++
	return retryBackoff, true
}

// Tick executes one decision: sample the utilization signal, feed the
// loop, and apply any resulting offset change through the actuator.
func (c *Controller) Tick(now sim.Time) {
	if !c.NeedsTick() {
		return
	}
	c.Stats.Ticks++
	util := c.sampleUtil()
	delta := c.loop.tick(now, util)
	c.Stats.BreachTicks = c.loop.breachTicks
	c.Stats.LastBreach = c.loop.lastBreach
	c.sink.Sample("control/util", now, util)
	c.sink.Sample("control/level", now, float64(c.loop.off))
	if delta == 0 {
		return
	}
	if delta > 0 {
		c.Stats.ScaleUps++
	} else {
		c.Stats.ScaleDowns++
	}
	c.Stats.Level = c.loop.off
	c.applyLevel()
	c.emitDecision(now, delta)
	c.levelSince = now
}

// sampleUtil produces the current interval's utilization in [0,1]:
// pooled busy-time delta over interval capacity.
func (c *Controller) sampleUtil() float64 {
	var delta sim.Time
	servers := 0
	for i, p := range c.pools {
		delta += p.Res.BusyTime - c.lastBusy[i]
		c.lastBusy[i] = p.Res.BusyTime
		servers += p.Res.Servers
	}
	if servers < 1 {
		servers = 1
	}
	// BusyTime is charged up front at task start, so a delta can
	// exceed the interval capacity; clamp to 1 (the same convention as
	// the obs utilization sampler).
	u := float64(delta) / (float64(TickInterval) * float64(servers))
	if u > 1 {
		u = 1
	}
	return u
}

// applyLevel pushes the loop's offset through the actuator.
func (c *Controller) applyLevel() {
	for _, p := range c.pools {
		n := p.Base + c.loop.off
		if n < 1 {
			n = 1
		}
		p.Res.SetServers(n)
	}
}

// emitDecision exports one scaling action as a root span whose
// segment covers the period spent at the previous level.
func (c *Controller) emitDecision(now sim.Time, delta int) {
	if c.sink == nil {
		return
	}
	dir := "up"
	if delta < 0 {
		dir = "down"
	}
	name := fmt.Sprintf("control/scale-%s/%s@%+d", dir, c.loop.spec.Target, c.loop.off)
	sp := c.sink.BeginControl(name)
	sp.Seg(obs.SegControl, name, c.levelSince, now)
	sp.End()
}

// loop is the pure autoscale decision state machine, split from the
// Controller so hysteresis and cooldown edges are table-testable
// without a kernel.
type loop struct {
	spec AutoscaleSpec

	off      int // current offset from base, in servers
	cooldown int // ticks left before the next action may fire

	utils []sample
	lats  []sample

	breachTicks uint64
	lastBreach  sim.Time
}

type sample struct {
	at sim.Time
	v  float64
}

// observeLatency adds one completion latency (microseconds) to the
// sliding P99 window.
func (l *loop) observeLatency(now sim.Time, us float64) {
	l.lats = append(l.lats, sample{at: now, v: us})
}

// evict drops samples older than the window from both rings.
func evict(ss []sample, cutoff sim.Time) []sample {
	keep := 0
	for keep < len(ss) && ss[keep].at < cutoff {
		keep++
	}
	if keep > 0 {
		n := copy(ss, ss[keep:])
		ss = ss[:n]
	}
	return ss
}

// windowP99 computes the P99 of the retained latency window (0 when
// empty) by metrics.NearestRank, the rule every reported P99 uses.
func (l *loop) windowP99() float64 {
	n := len(l.lats)
	if n == 0 {
		return 0
	}
	vals := make([]float64, n)
	for i, s := range l.lats {
		vals[i] = s.v
	}
	sort.Float64s(vals)
	return metrics.NearestRank(vals, 99)
}

// tick runs one decision on the latest utilization sample and returns
// the applied offset change (0 = no action): during a cooldown
// nothing, else one server up on a high-utilization or SLO-breach
// signal, or one down on a low-utilization signal, within the bounds.
func (l *loop) tick(now sim.Time, util float64) int {
	cutoff := now - window
	l.utils = evict(append(l.utils, sample{at: now, v: util}), cutoff)
	var sum float64
	for _, s := range l.utils {
		sum += s.v
	}
	winUtil := sum / float64(len(l.utils))

	breach := false
	if l.spec.SLOUs > 0 {
		l.lats = evict(l.lats, cutoff)
		if p99 := l.windowP99(); p99 > l.spec.SLOUs {
			breach = true
			l.breachTicks++
			l.lastBreach = now
		}
	}

	if l.cooldown > 0 {
		l.cooldown--
		return 0
	}
	d := 0
	switch {
	case winUtil >= l.spec.UpUtil || breach:
		if l.off < l.spec.MaxAdd {
			d = 1
		}
	case winUtil <= l.spec.DownUtil:
		if l.off > -l.spec.MaxRemove {
			d = -1
		}
	}
	if d != 0 {
		l.off += d
		l.cooldown = cooldownTicks
	}
	return d
}
