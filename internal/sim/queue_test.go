package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refHeap is an independent container/heap reference implementation of
// the (at, seq) priority queue, deliberately kept as the old kernel
// heap was written. The differential test below checks that eventQueue
// pops the exact same sequence.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// queueRegime is one random stream shape. Delta draws the offset of a
// new event's timestamp from the current simulated time.
// Start and firstSeq, when set, place the stream's clock and sequence
// numbers far from zero.
type queueRegime struct {
	name     string
	delta    func(r *rand.Rand) Time
	start    Time
	firstSeq uint64
}

// serviceScale is the accelerator service-time scale (2^20 ps ~= 1.05us) the
// stream shapes below are drawn around.
const serviceScale = Time(1) << 20

// TestEventQueueDifferential drives eventQueue and the container/heap
// reference with identical seed-derived streams across regimes from
// heavy (at, seq) tie-breaking to offsets spread over a millisecond,
// through deep bursts and drains. Pops must match exactly: (at, seq) is
// a unique total order, so any divergence is a queue bug, not a tie
// ambiguity.
func TestEventQueueDifferential(t *testing.T) {
	regimes := []queueRegime{
		// Sub-service-time offsets on a coarse grid: heavy tie ordering.
		{name: "dense-ties", delta: func(r *rand.Rand) Time {
			return Time(r.Intn(3)) * (serviceScale / 4)
		}},
		// Service-time scale offsets spread over 128 service times.
		{name: "near-window", delta: func(r *rand.Rand) Time {
			return Time(r.Int63n(128 * int64(serviceScale)))
		}},
		// Mostly near, occasionally very far: a bimodal heap.
		{name: "far-refill", delta: func(r *rand.Rand) Time {
			if r.Intn(8) == 0 {
				return Time(r.Int63n(int64(serviceScale) * 256 * 50))
			}
			return Time(r.Int63n(int64(serviceScale) * 4))
		}},
		// Pre-scheduled-arrival shape: a huge spread.
		{name: "arrivals", delta: func(r *rand.Rand) Time {
			return Time(r.Int63n(int64(Millisecond)))
		}},
		// Times above 2^62 ps and sequence numbers above 2^32, so the
		// compare's high words carry the order; offsets up to 2^40
		// also differ in the high bits of the low word.
		{name: "high-bits", delta: func(r *rand.Rand) Time {
			if r.Intn(4) == 0 {
				return Time(r.Intn(2))
			}
			return Time(r.Int63n(1 << 40))
		}, start: 1<<62 + 1<<61, firstSeq: 1<<32 + 7},
	}
	for _, reg := range regimes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(reg.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(seed * 7919))
				var q eventQueue
				ref := refHeap{}
				now := reg.start // kernel invariant: pushes are never in the past
				seq := reg.firstSeq
				push := func() {
					seq++
					e := event{at: now + reg.delta(r), seq: seq}
					q.push(e)
					heap.Push(&ref, e)
				}
				pop := func() bool {
					if ref.Len() == 0 {
						return false
					}
					want := heap.Pop(&ref).(event)
					got := q.pop()
					if got.at != want.at || got.seq != want.seq {
						t.Fatalf("seed %d: pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
							seed, got.at, got.seq, want.at, want.seq)
					}
					now = got.at
					return true
				}

				// A deep burst, then pushes and pops interleaved with a
				// drain bias under a depth cap of 2048.
				for i := 0; i < 1536; i++ {
					push()
				}
				for i := 0; i < 20000; i++ {
					if q.Len() != ref.Len() {
						t.Fatalf("seed %d: len mismatch: queue %d, ref %d", seed, q.Len(), ref.Len())
					}
					if r.Intn(5) < 2 && q.Len() < 2048 {
						push()
					} else if !pop() {
						push()
					}
					// minAt must agree with the reference's head and must
					// not perturb subsequent pops.
					if q.Len() > 0 && r.Intn(16) == 0 {
						if got, want := q.minAt(), ref[0].at; got != want {
							t.Fatalf("seed %d: minAt = %d, want %d", seed, got, want)
						}
					}
				}
				// Full drain: every remaining event must still match.
				for pop() {
				}
				if q.Len() != 0 {
					t.Fatalf("seed %d: queue reports %d events after drain", seed, q.Len())
				}
			})
		}
	}
}

// TestEventQueueSameInstantOrder pins the determinism contract at its
// sharpest point: many events at the identical timestamp must pop in
// scheduling order through a deep burst and a drain.
func TestEventQueueSameInstantOrder(t *testing.T) {
	var q eventQueue
	const n = 1024
	for i := 0; i < n; i++ {
		q.push(event{at: 42 * Microsecond, seq: uint64(i + 1)})
	}
	for i := 0; i < n; i++ {
		e := q.pop()
		if e.seq != uint64(i+1) {
			t.Fatalf("pop %d: seq %d, want %d", i, e.seq, i+1)
		}
	}
}

// TestEvLess pins the branch-free compare to the (at, seq) order at its
// edges: ties on at, times that differ only in high bits, and the
// largest time.
func TestEvLess(t *testing.T) {
	const max = Time(math.MaxInt64)
	cases := []struct {
		a, b event
		want uint64
	}{
		{event{at: 5, seq: 1}, event{at: 5, seq: 2}, 1},
		{event{at: 5, seq: 2}, event{at: 5, seq: 1}, 0},
		{event{at: 5, seq: 3}, event{at: 5, seq: 3}, 0},
		{event{at: 5, seq: 0}, event{at: 5, seq: math.MaxUint64}, 1},
		{event{at: 5, seq: math.MaxUint64}, event{at: 5, seq: 0}, 0},
		{event{at: 1 << 40, seq: 9}, event{at: 1<<40 | 1<<62, seq: 1}, 1},
		{event{at: 1<<40 | 1<<62, seq: 1}, event{at: 1 << 40, seq: 9}, 0},
		{event{at: 1 << 61, seq: math.MaxUint64}, event{at: 1 << 62, seq: 0}, 1},
		{event{at: 1 << 62, seq: 0}, event{at: 1 << 61, seq: math.MaxUint64}, 0},
		{event{at: max - 1, seq: 1 << 40}, event{at: max, seq: 1}, 1},
		{event{at: max, seq: 1}, event{at: max - 1, seq: 1 << 40}, 0},
		{event{at: max, seq: 1}, event{at: max, seq: 2}, 1},
		{event{at: max, seq: 2}, event{at: max, seq: 1}, 0},
		{event{at: 0, seq: math.MaxUint64}, event{at: max, seq: 0}, 1},
		{event{at: max, seq: 0}, event{at: 0, seq: math.MaxUint64}, 0},
	}
	for _, c := range cases {
		if got := evLess(&c.a, &c.b); got != c.want {
			t.Errorf("evLess((%d, %d), (%d, %d)) = %d, want %d", c.a.at, c.a.seq, c.b.at, c.b.seq, got, c.want)
		}
	}
}
