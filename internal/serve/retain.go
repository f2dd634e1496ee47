// Job retention. accelsimd serves for as long as it runs, so it cannot
// keep every job it has run: each one holds its status, its progress
// events and a reference to its result bytes. The scheduler keeps the
// newest retainedJobs finished jobs, plus every queued and running one,
// and forgets older finished jobs as newer ones finish. A forgotten
// job's ID answers ErrEvicted (HTTP 410), an ID never issued
// ErrNotFound (404); IDs are "job-N" in admission order, so the two are
// told apart by comparing N with the last number issued, with nothing
// stored per evicted job.
//
// Eviction drops the job, not its result: the result cache shares the
// job's *jobResultEntry, so a resubmission of an evicted job's body
// still hits the cache while the cache holds the entry. Its artifact
// bytes stay under the artifact budget until it revokes them
// (cache.go), whether or not a job still holds the entry.
package serve

import (
	"slices"
	"strconv"
	"strings"
	"sync"
)

// retainedJobs bounds the finished jobs the scheduler keeps. A retained
// cache hit costs about 1.2 KB of heap, so the bound holds about 1.2 MB
// of job state plus their values bodies; the artifact bytes they may
// pin are bounded by artifactBudget (cache.go), whether or not the
// result cache holds them.
const retainedJobs = 1024

// jobTable indexes the retained jobs by number. Its mutex is taken
// under the scheduler lock (add) and under a job's lock (finished).
// While it is held, the only other lock taken is that of the job add is
// creating, which no other goroutine can reach yet, so neither lock
// order the scheduler uses can deadlock on it.
type jobTable struct {
	mu   sync.Mutex
	jobs map[int64]*Job
	// last is the number of the newest job issued.
	last int64
	// ended holds the retained finished jobs in the order they finished,
	// as a ring: ended[head] is the oldest and n the count.
	ended   [retainedJobs]*Job
	head, n int
}

// add issues the next job number and records the job.
func (t *jobTable) add(req JobRequest) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs == nil {
		t.jobs = map[int64]*Job{}
	}
	t.last++
	j := newJob(t, t.last, req)
	t.jobs[t.last] = j
	return j
}

// finished records that j reached a terminal state, evicting the oldest
// finished job when the ring is full: O(1), with no scan over the jobs
// still queued or running.
func (t *jobTable) finished(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < len(t.ended) {
		t.ended[(t.head+t.n)%len(t.ended)] = j
		t.n++
		return
	}
	delete(t.jobs, t.ended[t.head].num)
	t.ended[t.head] = j
	t.head = (t.head + 1) % len(t.ended)
}

// get resolves a job ID: the job while it is retained, ErrEvicted once
// it is not, and ErrNotFound for an ID that was never issued.
func (t *jobTable) get(id string) (*Job, error) {
	n, ok := jobNumber(id)
	if !ok {
		return nil, ErrNotFound
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if j := t.jobs[n]; j != nil {
		return j, nil
	}
	if n <= t.last {
		return nil, ErrEvicted
	}
	return nil, ErrNotFound
}

// list returns the retained jobs in admission order.
func (t *jobTable) list() []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	nums := make([]int64, 0, len(t.jobs))
	for n := range t.jobs {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	out := make([]*Job, len(nums))
	for i, n := range nums {
		out[i] = t.jobs[n]
	}
	return out
}

// jobID is the ID of job number n.
func jobID(n int64) string { return "job-" + strconv.FormatInt(n, 10) }

// jobNumber parses an ID jobID issues. Anything else, "job-01" and
// "job-+1" included, names no job.
func jobNumber(id string) (int64, bool) {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 1 || jobID(n) != id {
		return 0, false
	}
	return n, true
}
