package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Sharded runs several Kernels — one per resource domain — under
// conservative time-window synchronization, the classic parallel
// discrete-event scheme: all domains advance together through epochs
// of width lookahead (the minimum cross-domain latency), with a
// barrier between epochs where cross-domain mail is merged into the
// destination queues in a fixed total order.
//
// Determinism argument (why execution is byte-identical at any worker
// count, including 1):
//
//  1. Each domain's state is touched only by events on that domain's
//     kernel, and each kernel is executed by exactly one goroutine per
//     epoch. Within an epoch a domain runs exactly the serial
//     algorithm over exactly the events visible to it.
//  2. The conservative send rule (Send panics unless the delivery
//     time is at or beyond the current epoch horizon) guarantees no
//     event that could affect a domain in epoch N is produced during
//     epoch N, so the set of events each domain executes per epoch is
//     fixed before the epoch starts.
//  3. At the barrier, mail is sorted by (delivery time, source
//     domain, send order within source) — a total order independent of
//     goroutine scheduling — before being pushed, so destination
//     sequence numbers (the kernel's same-instant tiebreaker) are
//     assigned identically on every run.
//  4. The epoch schedule itself (each epoch's start = the earliest
//     pending event across all domains) is a pure function of the
//     event population, which by 1-3 is scheduling-independent.
//
// A single domain is just a Kernel, so Sharded always has at least
// two.
type Sharded struct {
	domains   []*Kernel
	lookahead Time
	workers   int

	// outbox[d] holds mail posted by domain d during the current
	// epoch. Only domain d's worker appends to it, so no lock is
	// needed; the coordinator drains all outboxes between epochs.
	outbox [][]mail

	// horizon is the current epoch's exclusive event bound and the
	// conservative floor for cross-domain sends. Written by the
	// coordinator before each epoch starts (the worker wake-up
	// establishes the happens-before edge).
	horizon Time

	delivery []routed // reusable barrier merge buffer

	// Stats accumulates barrier-level counters; read them after RunCtx
	// returns.
	Stats ShardStats
}

// ShardStats counts coordinator work during a sharded run.
type ShardStats struct {
	// Epochs is the number of synchronization windows executed.
	Epochs uint64
	// Delivered is the number of cross-domain messages merged at
	// barriers.
	Delivered uint64
}

// mail is one cross-domain message awaiting barrier delivery.
type mail struct {
	to int
	at Time
	fn func()
}

// routed is mail tagged with its deterministic merge key.
type routed struct {
	m    mail
	from int
	idx  int
}

// NewSharded builds a coordinator with the given number of domain
// kernels (at least two). lookahead is the epoch width — it must be
// positive and a lower bound on every cross-domain latency in the
// model (Send enforces this at run time). workers is the number of
// goroutines executing domains each epoch; <= 0 means one per domain,
// and values above the domain count are clamped. The worker count
// affects wall-clock speed only, never results.
func NewSharded(domains int, lookahead Time, workers int) *Sharded {
	if domains < 2 {
		panic(fmt.Sprintf("sim: NewSharded needs at least two domains, got %d", domains))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewSharded needs positive lookahead, got %v", lookahead))
	}
	if workers <= 0 || workers > domains {
		workers = domains
	}
	s := &Sharded{
		lookahead: lookahead,
		workers:   workers,
		domains:   make([]*Kernel, domains),
		outbox:    make([][]mail, domains),
	}
	for i := range s.domains {
		s.domains[i] = &Kernel{shard: s, domain: i}
	}
	return s
}

// Domain returns the kernel for domain i. Schedule each domain's
// stimulus on its own kernel; cross-domain interactions go through
// Kernel.Send.
func (s *Sharded) Domain(i int) *Kernel { return s.domains[i] }

// Domains returns the number of domains.
func (s *Sharded) Domains() int { return len(s.domains) }

// Now returns the latest domain clock (the fleet-wide time at
// quiescence, when all domains have drained).
func (s *Sharded) Now() Time {
	var t Time
	for _, k := range s.domains {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// Processed sums executed events across domains.
func (s *Sharded) Processed() uint64 {
	var n uint64
	for _, k := range s.domains {
		n += k.processed
	}
	return n
}

// post queues a cross-domain send for barrier delivery (Kernel.Send).
func (s *Sharded) post(from, to int, t Time, fn func()) {
	if to < 0 || to >= len(s.domains) {
		panic(fmt.Sprintf("sim: Send to unknown domain %d (have %d)", to, len(s.domains)))
	}
	if t < s.horizon {
		panic(fmt.Sprintf(
			"sim: conservative send violated: domain %d sends to %d at %v inside epoch horizon %v (lookahead %v exceeds the model's cross-domain latency)",
			from, to, t, s.horizon, s.lookahead))
	}
	s.outbox[from] = append(s.outbox[from], mail{to: to, at: t, fn: fn})
}

// deliver merges all outbox mail into destination queues in
// (time, source domain, send order) order — see the determinism
// argument on Sharded.
func (s *Sharded) deliver() {
	total := 0
	for _, ob := range s.outbox {
		total += len(ob)
	}
	if total == 0 {
		return
	}
	d := s.delivery[:0]
	for from, ob := range s.outbox {
		for i, m := range ob {
			d = append(d, routed{m: m, from: from, idx: i})
		}
		s.outbox[from] = ob[:0]
	}
	sort.Slice(d, func(a, b int) bool {
		if d[a].m.at != d[b].m.at {
			return d[a].m.at < d[b].m.at
		}
		if d[a].from != d[b].from {
			return d[a].from < d[b].from
		}
		return d[a].idx < d[b].idx
	})
	for _, r := range d {
		s.domains[r.m.to].At(r.m.at, r.m.fn)
	}
	s.Stats.Delivered += uint64(total)
	s.delivery = d[:0]
}

// nextAt returns the earliest pending event time across all domains,
// or (0, false) when every queue is empty.
func (s *Sharded) nextAt() (Time, bool) {
	var min Time
	found := false
	for _, k := range s.domains {
		if k.events.Len() == 0 {
			continue
		}
		if at := k.events.minAt(); !found || at < min {
			min, found = at, true
		}
	}
	return min, found
}

// RunCtx executes all domains to quiescence (or cancellation) under
// epoch-barrier synchronization, returning ctx's error when cancelled
// and nil when drained. See the Sharded doc for the determinism
// argument.
func (s *Sharded) RunCtx(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	nd := len(s.domains)
	w := s.workers
	errs := make([]error, nd)
	// Persistent workers: worker i owns domains i, i+w, i+2w, ... for
	// the whole run, woken once per epoch with the horizon. Worker 0
	// is the caller's goroutine, so with one worker no goroutine starts
	// and every domain runs serially — the serial reference. The
	// channel send publishes the coordinator's barrier work (mail
	// pushes, horizon) to a worker; wg.Wait publishes the worker's
	// epoch back to the coordinator.
	var wg sync.WaitGroup
	start := make([]chan Time, w-1)
	for i := range start {
		ch := make(chan Time, 1)
		start[i] = ch
		go func(worker int) {
			for h := range ch {
				for d := worker; d < nd; d += w {
					if errs[d] == nil {
						errs[d] = s.domains[d].runEpoch(ctx, h)
					}
				}
				wg.Done()
			}
		}(i + 1)
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Mail first: barrier N delivers epoch N-1's sends, and the
		// delivered mail may contain the globally earliest event.
		s.deliver()
		t0, ok := s.nextAt()
		if !ok {
			return nil
		}
		h := t0 + s.lookahead
		if h <= t0 { // overflow guard
			if t0 == math.MaxInt64 {
				panic("sim: event at Time MaxInt64 cannot be sharded")
			}
			h = math.MaxInt64
		}
		s.horizon = h
		s.Stats.Epochs++

		wg.Add(w - 1)
		for _, ch := range start {
			ch <- h
		}
		for d := 0; d < nd; d += w {
			if errs[d] == nil {
				errs[d] = s.domains[d].runEpoch(ctx, h)
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
}
