package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// buildRing schedules a deterministic multi-domain model on s: each
// domain starts tokens that do local work (several same-instant and
// near-instant events, exercising seq tiebreaks) and then hop to the
// next domain at now+hop. logs[d] is appended to only by domain d's
// events, mirroring the domain-confinement rule real models follow.
func buildRing(s *Sharded, hop Time, hops int) [][]string {
	nd := s.Domains()
	logs := make([][]string, nd)
	var bounce func(d, token, left int)
	bounce = func(d, token, left int) {
		k := s.Domain(d)
		now := k.Now()
		logs[d] = append(logs[d], fmt.Sprintf("d%d t%d arrive@%d left=%d", d, token, now, left))
		// Same-instant local events: order must come from seq alone.
		for i := 0; i < 3; i++ {
			i := i
			k.At(now+Nanosecond, func() {
				logs[d] = append(logs[d], fmt.Sprintf("d%d t%d work%d@%d", d, token, i, k.Now()))
			})
		}
		if left > 0 {
			next := (d + 1) % nd
			k.Send(next, now+hop, func() { bounce(next, token, left-1) })
		}
	}
	for d := 0; d < nd; d++ {
		d := d
		for tok := 0; tok < 2; tok++ {
			tok := tok
			s.Domain(d).At(Time(tok+1)*Microsecond, func() {
				bounce(d, d*10+tok, hops)
			})
		}
	}
	return logs
}

// TestShardedWorkerCountInvariance is the core determinism property:
// the same model executed with 1, 2, 4, and 8 workers produces
// byte-identical per-domain execution logs, clocks, and event counts.
func TestShardedWorkerCountInvariance(t *testing.T) {
	const domains, hops = 4, 6
	hop := 10 * Microsecond
	run := func(workers int) ([][]string, Time, uint64, ShardStats) {
		s := NewSharded(domains, hop, workers)
		logs := buildRing(s, hop, hops)
		if err := s.RunCtx(context.Background()); err != nil {
			t.Fatalf("workers=%d: RunCtx: %v", workers, err)
		}
		return logs, s.Now(), s.Processed(), s.Stats
	}
	refLogs, refNow, refN, refStats := run(1)
	if refN == 0 || refStats.Delivered == 0 {
		t.Fatalf("reference run did no work: processed=%d stats=%+v", refN, refStats)
	}
	for _, w := range []int{2, 4, 8} {
		logs, now, n, stats := run(w)
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("workers=%d: execution logs diverge from workers=1", w)
		}
		if now != refNow || n != refN {
			t.Errorf("workers=%d: now/processed = %v/%d, want %v/%d", w, now, n, refNow, refN)
		}
		if stats != refStats {
			t.Errorf("workers=%d: stats %+v, want %+v (epoch schedule must not depend on workers)", w, stats, refStats)
		}
	}
}

// TestShardedConservativeSendPanics pins the lookahead guard: a
// cross-domain send landing inside the current epoch is a modeling
// bug (the declared lookahead exceeds the true cross-domain latency)
// and must fail loudly rather than silently lose determinism.
func TestShardedConservativeSendPanics(t *testing.T) {
	s := NewSharded(2, 10*Microsecond, 1)
	s.Domain(0).At(Microsecond, func() {
		// Horizon is first-event + lookahead = 11us; sending at now+1us
		// = 2us violates the conservative rule.
		s.Domain(0).Send(1, s.Domain(0).Now()+Microsecond, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Error("conservative send violation did not panic")
		}
	}()
	_ = s.RunCtx(context.Background())
}

// TestShardedMailMergeOrder pins the barrier merge key: same-instant
// mail from different domains is delivered in source-domain order,
// then send order, so destination seq assignment is deterministic.
// A self-send is plain local scheduling: it may land inside the epoch
// and never passes through the barrier.
func TestShardedMailMergeOrder(t *testing.T) {
	hop := 10 * Microsecond
	s := NewSharded(3, hop, 1)
	var got []string
	at := 20 * Microsecond
	s.Domain(0).At(Microsecond, func() {
		k := s.Domain(0)
		k.Send(0, k.Now()+Nanosecond, func() { got = append(got, "self") })
	})
	// Domains 2 and 1 both send two messages to domain 0 for the same
	// instant; delivery must come out (from=1 idx=0), (1,1), (2,0), (2,1)
	// regardless of the order the sends were scheduled in.
	for _, from := range []int{2, 1} {
		from := from
		s.Domain(from).At(Microsecond, func() {
			for i := 0; i < 2; i++ {
				msg := fmt.Sprintf("from%d.%d", from, i)
				s.Domain(from).Send(0, at, func() { got = append(got, msg) })
			}
		})
	}
	if err := s.RunCtx(context.Background()); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	want := []string{"self", "from1.0", "from1.1", "from2.0", "from2.1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
	if s.Stats.Delivered != 4 {
		t.Fatalf("Delivered = %d, want 4", s.Stats.Delivered)
	}
}

// TestNewShardedRejectsDegenerate: one domain is a plain Kernel, and
// a zero lookahead leaves the epoch schedule no room to advance.
func TestNewShardedRejectsDegenerate(t *testing.T) {
	for _, c := range []struct {
		domains   int
		lookahead Time
	}{{1, Microsecond}, {0, Microsecond}, {2, 0}, {2, -Nanosecond}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSharded(%d, %v, 1) did not panic", c.domains, c.lookahead)
				}
			}()
			NewSharded(c.domains, c.lookahead, 1)
		}()
	}
}

// TestShardedCancellation: cancelling mid-run stops at a barrier or
// batch boundary and surfaces ctx.Err.
func TestShardedCancellation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := NewSharded(2, Microsecond, workers)
		ctx, cancel := context.WithCancel(context.Background())
		var chain func(d int)
		chain = func(d int) {
			k := s.Domain(d)
			k.After(Nanosecond, func() {
				if k.Processed() > 10_000 {
					cancel()
				}
				chain(d)
			})
		}
		for d := 0; d < 2; d++ {
			d := d
			s.Domain(d).At(0, func() { chain(d) })
		}
		if err := s.RunCtx(ctx); err == nil {
			t.Fatalf("workers=%d: cancelled sharded run returned nil error", workers)
		}
	}
}

// TestShardedPerDomainHooks: per-domain OnEvent observes exactly that
// domain's events in monotone time order (the checker contract).
func TestShardedPerDomainHooks(t *testing.T) {
	hop := 10 * Microsecond
	s := NewSharded(2, hop, 2)
	var times [2][]Time
	for d := 0; d < 2; d++ {
		d := d
		s.Domain(d).OnEvent(func(at Time) { times[d] = append(times[d], at) })
	}
	logs := buildRing(s, hop, 4)
	if err := s.RunCtx(context.Background()); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	for d := 0; d < 2; d++ {
		if uint64(len(times[d])) != s.Domain(d).Processed() {
			t.Errorf("domain %d hook saw %d events, processed %d", d, len(times[d]), s.Domain(d).Processed())
		}
		for i := 1; i < len(times[d]); i++ {
			if times[d][i] < times[d][i-1] {
				t.Fatalf("domain %d time went backwards: %v after %v", d, times[d][i], times[d][i-1])
			}
		}
	}
	_ = logs
}

// TestStandaloneSendPanics: Send to a nonzero domain without a
// coordinator is a bug.
func TestStandaloneSendPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("standalone Send(1, ...) did not panic")
		}
	}()
	k.Send(1, Nanosecond, func() {})
}
