package sim

// Discipline selects the order in which queued tasks are admitted to a
// free server of a Resource.
type Discipline int

const (
	// FIFO admits tasks in arrival order.
	FIFO Discipline = iota
	// EDF (earliest deadline first) admits the task with the smallest
	// Deadline first, breaking ties by arrival order. Used by the
	// soft-SLO input dispatcher policy (paper §IV-C).
	EDF
)

// Task describes one unit of work submitted to a Resource.
type Task struct {
	// Hold is how long a server is occupied by the task.
	Hold Time
	// Done runs when the task completes (after Hold has elapsed).
	Done func()
	// Started, if non-nil, runs when the task is admitted to a server,
	// before the hold begins. Useful for recording queueing delay.
	Started func()
	// Deadline orders tasks under the EDF discipline (earlier first).
	Deadline Time

	enq Time
	seq uint64
	// pooled marks a Task that Do took from the resource's free list;
	// it returns there once admitted. next links the free list.
	pooled bool
	next   *Task
}

// taskHeap is a concrete binary min-heap of queued tasks — no
// container/heap, so admissions pay no interface dispatch. The
// comparison key always ends in the unique per-resource seq, a total
// order, so pop order does not depend on sift implementation details.
type taskHeap struct {
	tasks []*Task
	disc  Discipline
}

func (h *taskHeap) less(a, b *Task) bool {
	if h.disc == EDF && a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.seq < b.seq
}

func (h *taskHeap) push(t *Task) {
	h.tasks = append(h.tasks, t)
	s := h.tasks
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *taskHeap) pop() *Task {
	s := h.tasks
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil // drop the reference for GC
	h.tasks = s[:n]
	h.down(0)
	return top
}

func (h *taskHeap) down(i int) {
	s := h.tasks
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(s[r], s[l]) {
			m = r
		}
		if !h.less(s[m], s[i]) {
			return
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// Resource models a pool of identical servers with a shared queue, e.g.
// the PEs of one accelerator, the A-DMA engine pool, the RELIEF
// hardware manager, or the CPU core pool. Queueing statistics and
// busy-time are accumulated for utilization and wait-time reporting.
type Resource struct {
	Name string
	// Servers is the live server count: the nominal level (SetServers)
	// minus the servers held offline (SetOffline), floored at one.
	// Read it; change it only through those two setters.
	Servers int

	// nominal is the provisioned level (the autoscaler's actuator);
	// offline is how many of those servers a fault window holds out of
	// service. Keeping both here lets each attachment set its own
	// count without knowing about the other.
	nominal, offline int

	k    *Kernel
	busy int
	q    taskHeap
	seq  uint64

	// Stats.
	BusyTime  Time // summed over servers
	WaitTime  Time // summed queueing delay
	TaskCount uint64

	// Occupancy integrals, advanced lazily on every queue/busy change.
	// qArea is ∫(queue length)dt in task-picoseconds; at any instant it
	// equals the wait already accrued by departed tasks (WaitTime) plus
	// the wait accrued so far by still-queued ones, which is the exact
	// integer form of Little's law the invariant checker verifies.
	// busyArea is ∫(busy servers)dt; once every admitted hold has
	// elapsed it equals BusyTime exactly (BusyTime is charged up front,
	// so the two only agree at quiescence).
	qArea    Time
	busyArea Time
	// srvArea is ∫(live servers)dt — the exact capacity-time integral.
	// With a static pool it is Servers × elapsed; under mid-run
	// SetServers/SetOffline changes (the autoscaler, fault windows) it is
	// the true provisioned capacity, which is what the
	// cost-of-overprovisioning experiment charges for.
	srvArea  Time
	lastTick Time
	// maxServers tracks the largest live server count ever applied, so
	// utilization bounds stay valid across mid-run resizes.
	maxServers int

	// freeComp is a free list of recycled completion nodes, so admitting
	// a task does not allocate a fresh closure for its completion event.
	freeComp *compNode
	// freeTask recycles the Tasks that Do queues behind busy servers.
	freeTask *Task
}

// compNode is a pooled task completion: the kernel event that ends a
// hold runs fn (a method value bound once, at node creation) instead
// of a per-admission closure. Nodes recycle through Resource.freeComp.
type compNode struct {
	r    *Resource
	done func()
	next *compNode
	fn   func()
}

// run ends one hold: it extracts the completion callback, returns the
// node to the pool (safe even if done re-enters Do/Submit and reuses
// it — nothing below reads the node again), then performs exactly what
// the old inline closure did.
func (n *compNode) run() {
	r := n.r
	done := n.done
	n.done = nil
	n.next = r.freeComp
	r.freeComp = n
	r.advance()
	r.busy--
	if done != nil {
		done()
	}
	r.tryStart()
}

// complete schedules the end of a hold that is starting now.
func (r *Resource) complete(done func(), hold Time) {
	n := r.freeComp
	if n == nil {
		n = &compNode{r: r}
		n.fn = n.run
	} else {
		r.freeComp = n.next
	}
	n.done = done
	r.k.After(hold, n.fn)
}

// NewResource creates a Resource with the given number of servers and
// queue discipline.
func NewResource(k *Kernel, name string, servers int, disc Discipline) *Resource {
	if servers <= 0 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{Name: name, Servers: servers, nominal: servers, maxServers: servers, k: k, q: taskHeap{disc: disc}}
}

// advance accrues the occupancy integrals up to the current simulated
// time. It must run before any queue-length or busy-count change; a
// second call at the same instant is a no-op, so callers do not need
// to coordinate.
func (r *Resource) advance() {
	now := r.k.Now()
	if dt := now - r.lastTick; dt > 0 {
		r.qArea += Time(len(r.q.tasks)) * dt
		r.busyArea += Time(r.busy) * dt
		r.srvArea += Time(r.Servers) * dt
		r.lastTick = now
	}
}

// SetServers sets the nominal server count mid-run (the autoscaler's
// actuator). The live count becomes the new level minus any servers a
// SetOffline hold keeps out of service. Growing the pool starts queued
// tasks immediately; shrinking it never preempts — in-service tasks
// finish and the pool drains down to the new size.
func (r *Resource) SetServers(n int) {
	r.nominal = n
	r.resize()
}

// SetOffline holds n of the nominal servers out of service (fault
// injection: degraded PEs, removed A-DMA engines, a stalled manager);
// SetOffline(0) restores the nominal level. A SetServers call while a
// hold is open keeps the hold.
func (r *Resource) SetOffline(n int) {
	r.offline = n
	r.resize()
}

// Nominal returns the nominal server count set by SetServers (the
// construction-time count until then).
func (r *Resource) Nominal() int { return r.nominal }

// resize applies nominal minus offline as the live server count,
// floored at one server so queued work cannot strand.
func (r *Resource) resize() {
	n := r.nominal - r.offline
	if n < 1 {
		n = 1
	}
	// Accrue the capacity integral at the old server count before the
	// change takes effect.
	r.advance()
	r.Servers = n
	if n > r.maxServers {
		r.maxServers = n
	}
	r.tryStart()
}

// Submit enqueues a task. If a server is free and nothing is queued it
// starts at once, without a round trip through the queue.
func (r *Resource) Submit(t *Task) {
	r.advance()
	if r.busy < r.Servers && len(r.q.tasks) == 0 {
		r.start(t)
		return
	}
	r.seq++
	t.seq = r.seq
	t.enq = r.k.Now()
	r.q.push(t)
	r.tryStart()
}

// Do is shorthand for submitting a FIFO task with only a hold and a
// completion callback. When a server is free and nothing is queued it
// starts the task at once from a Task on the stack, as Submit does, so
// it allocates nothing. A task that has to queue comes from the
// resource's free list and returns to it when admitted, so the busy
// path allocates nothing either once the list has warmed up.
func (r *Resource) Do(hold Time, done func()) {
	if r.busy < r.Servers && len(r.q.tasks) == 0 {
		r.advance()
		r.start(&Task{Hold: hold, Done: done})
		return
	}
	t := r.freeTask
	if t == nil {
		t = &Task{pooled: true}
	} else {
		r.freeTask = t.next
		t.next = nil
	}
	t.Hold, t.Done = hold, done
	r.Submit(t)
}

// QueueLen reports the number of tasks waiting (not in service).
func (r *Resource) QueueLen() int { return len(r.q.tasks) }

// InService reports the number of busy servers.
func (r *Resource) InService() int { return r.busy }

// Idle reports whether the resource has no queued or running work.
func (r *Resource) Idle() bool { return r.busy == 0 && len(r.q.tasks) == 0 }

// tryStart admits queued tasks to free servers. Every caller (run,
// Submit, resize) has advanced the integrals at this instant already.
func (r *Resource) tryStart() {
	for r.busy < r.Servers && len(r.q.tasks) > 0 {
		t := r.q.pop()
		r.WaitTime += r.k.Now() - t.enq
		r.start(t)
		if t.pooled {
			t.Done = nil
			t.next = r.freeTask
			r.freeTask = t
		}
	}
}

// start puts t on a free server now; the caller has advanced the
// integrals and taken t off the queue if it was queued. Started runs
// before the hold is charged, so the hold it leaves in t.Hold is the
// one charged and booked.
func (r *Resource) start(t *Task) {
	r.busy++
	r.TaskCount++
	if t.Started != nil {
		t.Started()
	}
	r.BusyTime += t.Hold
	r.complete(t.Done, t.Hold)
}

// Utilization returns the fraction of server-time spent busy over the
// elapsed simulated time.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.BusyTime) / (float64(elapsed) * float64(r.Servers))
}

// QueueArea returns ∫(queue length)dt up to now, in task-picoseconds.
func (r *Resource) QueueArea() Time {
	r.advance()
	return r.qArea
}

// BusyArea returns ∫(busy servers)dt up to now, in server-picoseconds.
// Unlike BusyTime (charged up front at task start), this accrues in
// real time, so BusyArea <= BusyTime until all admitted holds elapse.
func (r *Resource) BusyArea() Time {
	r.advance()
	return r.busyArea
}

// QueuedWaitResidual sums the wait already accrued by tasks still in
// the queue, completing the Little's-law identity
// QueueArea == WaitTime + QueuedWaitResidual at any instant.
func (r *Resource) QueuedWaitResidual() Time {
	now := r.k.Now()
	var t Time
	for _, task := range r.q.tasks {
		t += now - task.enq
	}
	return t
}

// ServerArea returns ∫(live servers)dt up to now, in
// server-picoseconds — the exact provisioned-capacity integral across
// any sequence of mid-run SetServers/SetOffline changes.
func (r *Resource) ServerArea() Time {
	r.advance()
	return r.srvArea
}

// MaxServers reports the largest live server count the resource ever
// had, bounding utilization even across mid-run resizes.
func (r *Resource) MaxServers() int { return r.maxServers }
