package sim

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
type eventQueue struct {
	heap []event
}

// evLess is the total event order: time, then scheduling sequence.
func evLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Len reports queued events.
func (q *eventQueue) Len() int { return len(q.heap) }

// minAt returns the timestamp of the minimum event without removing
// it. Len must be > 0.
func (q *eventQueue) minAt() Time { return q.heap[0].at }

// push inserts an event.
func (q *eventQueue) push(e event) {
	s := append(q.heap, e)
	q.heap = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&s[i], &s[p]) {
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
	s = s[:n]
	q.heap = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&s[r], &s[l]) {
			m = r
		}
		if !evLess(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
