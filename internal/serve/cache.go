// Content-addressed result cache for the serving plane. Determinism
// makes every simulation result cacheable forever: a job's Values,
// report lines, and artifact bytes are pure functions of its submitted
// parameters (pinned by determinism_test.go), so the cache keys off a
// result identity — a digest of the normalized parameters for observed
// jobs (workload.ObservedParams.Key) and experiment jobs, the search
// signature for tune jobs (see JobRequest.ResultKey) — that leaves out
// the execution-only Parallelism knob. Submit computes the key before
// it takes the scheduler lock.
//
// One bounded LRU holds finished jobs' results (*jobResultEntry),
// keyed by ResultKey: a job's values body and artifact bytes, rendered
// once when the run completed, so a hit serves the exact bytes the
// cold job serves. A hit completes the submission synchronously
// without occupying a queue slot. Entries are immutable, so a hit
// hands out a shared pointer.
//
// Concurrency: the cache's own mutex guards the LRU; it never takes
// the scheduler lock, so the scheduler may call into it while holding
// its own.
package serve

import (
	"sync"

	"accelflow/internal/obs"
)

// CacheStats is the /v1/cache stats payload.
type CacheStats struct {
	// Entries and Capacity describe the LRU of finished jobs.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits/Misses count submissions served from / not found in the
	// completed-job cache. Coalesced counts submissions that joined an
	// in-flight identical run instead of enqueueing (every coalesced
	// submission is also a miss: the entry did not exist yet).
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts LRU entries dropped to stay under Capacity.
	Evictions uint64 `json:"evictions"`
}

// jobResultEntry is a finished job's output: everything a client can
// fetch after the job completes, as the bytes rendered when the run
// finished (Scheduler.execute). One entry is the result of the job that
// ran, its cache entry, and the result of every job completed from it;
// it is immutable once set, so all of them share it read-only.
type jobResultEntry struct {
	// values is the GET /values body after its id member (renderValues).
	values []byte
	// artifacts holds an observed job's exports (nil for other types).
	artifacts map[obs.Artifact][]byte
}

// resultCache is a bounded LRU of finished jobs' results. Safe for
// concurrent use.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*cacheItem
	// root is the recency list's sentinel: root.next is the most
	// recently used item, root.prev the least.
	root  cacheItem
	stats CacheStats
}

type cacheItem struct {
	key        string
	e          *jobResultEntry
	prev, next *cacheItem
}

func newResultCache(capacity int) *resultCache {
	c := &resultCache{capacity: capacity, items: make(map[string]*cacheItem)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// toFront makes it the most recently used item, unlinking it first
// when it is already listed.
func (c *resultCache) toFront(it *cacheItem) {
	if it.next != nil {
		it.prev.next, it.next.prev = it.next, it.prev
	}
	it.prev, it.next = &c.root, c.root.next
	it.prev.next, it.next.prev = it, it
}

// getJob returns a completed-job entry, bumping it to most recent and
// counting the hit or miss.
func (c *resultCache) getJob(key string) (*jobResultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.toFront(it)
	return it.e, true
}

// putJob publishes a completed-job entry, evicting from the LRU tail
// to stay under capacity.
func (c *resultCache) putJob(key string, e *jobResultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.items[key]; ok {
		it.e = e
		c.toFront(it)
		return
	}
	it := &cacheItem{key: key, e: e}
	c.items[key] = it
	c.toFront(it)
	for len(c.items) > c.capacity {
		tail := c.root.prev
		tail.prev.next, c.root.prev = &c.root, tail.prev
		delete(c.items, tail.key)
		c.stats.Evictions++
	}
}

// coalesced records a submission that joined an in-flight run.
func (c *resultCache) coalesced() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Coalesced++
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.items)
	st.Capacity = c.capacity
	return st
}
