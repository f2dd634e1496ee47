package sim

import "math/bits"

// eventQueue is the kernel's pending-event store: a concrete binary
// min-heap popping in strict (at, seq) order — the total order that
// makes runs deterministic. Unlike container/heap there is no
// interface boxing (the old heap allocated one interface{} per Push and
// per Pop — ~27% of all run allocations) and no dynamic dispatch on
// Less/Swap.
//
// The heap stays shallow because every stimulus source keeps only its
// next event queued (see Kernel.Reserve): occupancy tracks in-flight
// work, not the length of the run.
//
// The kernel executes the minimum event in place (start): while its
// callback runs, heap[0] still holds it, marked running, and the
// callback's first push overwrites it and sifts down once — a fused
// pop+push (Python's heapreplace) instead of a sift down for the pop
// and a sift up for the push. Most callbacks book a successor (a
// resource completion starts the next hold), so most events pay one
// sift. A callback that books nothing leaves the root running, and
// finish pops it. Replacing the root with any key and sifting down
// leaves a valid heap, and (at, seq) is a total order over unique
// keys, so the pop sequence is the one a pop-then-push heap gives.
//
// down picks the smaller child without a branch, by adding evLess's
// 0/1 result to the left child's index.
type eventQueue struct {
	heap []event
	// running is 1 while heap[0] is the executing event, whose slot the
	// next push reuses, and 0 otherwise. It is an int so Len can
	// subtract it without a branch.
	running int
}

// evLess is the total event order, time then scheduling sequence: it
// returns 1 if a precedes b and 0 otherwise. The result is the borrow
// out of the 128-bit subtraction (a.at, a.seq) − (b.at, b.seq), which
// orders the pair as unsigned integers; that is the signed order
// because the kernel never holds a negative time.
func evLess(a, b *event) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// Len reports queued events, not counting a running root.
func (q *eventQueue) Len() int { return len(q.heap) - q.running }

// minAt returns the timestamp of the minimum event without removing
// it. Len must be > 0 and no event may be running.
func (q *eventQueue) minAt() Time { return q.heap[0].at }

// start marks the minimum event running and returns it; it stays in
// heap[0] until the next push overwrites it or finish pops it. Len
// must be > 0 and no event may be running.
func (q *eventQueue) start() event {
	q.running = 1
	return q.heap[0]
}

// finish ends the running event: if no push has replaced it, it is
// removed.
func (q *eventQueue) finish() {
	if q.running != 0 {
		q.running = 0
		q.pop()
	}
}

// push inserts an event, overwriting a running root if there is one.
func (q *eventQueue) push(e event) {
	if q.running != 0 {
		q.running = 0
		q.heap[0] = e
		q.down()
		return
	}
	s := append(q.heap, e)
	q.heap = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if evLess(&s[i], &s[p]) == 0 {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the minimum event. Len must be > 0.
func (q *eventQueue) pop() event {
	s := q.heap
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the callback reference for GC
	q.heap = s[:n]
	q.down()
	return top
}

// down restores the heap order after heap[0] was replaced.
func (q *eventQueue) down() {
	s := q.heap
	n := len(s)
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if l+1 < n {
			m += int(evLess(&s[l+1], &s[l]))
		}
		if evLess(&s[m], &s[i]) == 0 {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}
