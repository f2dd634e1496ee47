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
// One bounded LRU holds two kinds of entries under one capacity:
//
//   - job entries (*jobResultEntry): a finished job's values body and
//     artifact bytes, keyed "job|...". The entry is the job's own
//     result, whose bytes were rendered once when the run completed,
//     so a hit serves the exact bytes the cold job serves.
//     A hit completes the submission synchronously without occupying a
//     queue slot.
//   - cell entries: individual sweep-cell outputs, keyed
//     "cell|<job key>|<cell key>" through the cellCache adapter
//     (experiments.Options.Cache). These exist so a cancelled sweep's
//     completed cells are reusable when the job is resubmitted.
//
// Concurrency: the cache's own mutex guards the LRU; it never takes
// the scheduler lock, so the scheduler may call into it while holding
// its own. Cached cell values are handed back by reference and may
// contain types that are not concurrency-safe (*metrics.Recorder
// lazily sorts in place), which is safe only because singleflight
// coalescing in the scheduler guarantees at most one execution per
// job key is in flight at a time — same-key runs are serialized, and
// the scheduler mutex plus the sweep pool's WaitGroup join establish
// the happens-before edges between them.
package serve

import (
	"container/list"
	"sync"

	"accelflow/internal/obs"
)

// CacheStats is the /v1/cache stats payload.
type CacheStats struct {
	// Entries and Capacity describe the LRU (job + cell entries share
	// the bound).
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
	// CellHits/CellMisses count per-sweep-cell lookups (partial-result
	// reuse after a cancelled sweep).
	CellHits   uint64 `json:"cellHits"`
	CellMisses uint64 `json:"cellMisses"`
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

// resultCache is a bounded LRU over job and cell entries. Safe for
// concurrent use; see the package comment for the value-ownership
// contract.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	stats    CacheStats
}

type cacheItem struct {
	key string
	val any
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get looks a key up and bumps it to most-recent.
func (c *resultCache) get(key string) (any, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheItem).val, true
	}
	return nil, false
}

// put inserts or refreshes a key, evicting from the LRU tail to stay
// under capacity.
func (c *resultCache) put(key string, v any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, val: v})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheItem).key)
		c.stats.Evictions++
	}
}

// getJob returns a completed-job entry, counting the hit/miss.
func (c *resultCache) getJob(key string) (*jobResultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.get(key); ok {
		if e, ok := v.(*jobResultEntry); ok {
			c.stats.Hits++
			return e, true
		}
	}
	c.stats.Misses++
	return nil, false
}

// putJob publishes a completed-job entry.
func (c *resultCache) putJob(key string, e *jobResultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, e)
}

// coalesced records a submission that joined an in-flight run.
func (c *resultCache) coalesced() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Coalesced++
}

func (c *resultCache) getCell(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.get(key); ok {
		c.stats.CellHits++
		return v, true
	}
	c.stats.CellMisses++
	return nil, false
}

func (c *resultCache) putCell(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, v)
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.ll.Len()
	st.Capacity = c.capacity
	return st
}

// cellCache adapts the result cache to experiments.CellCache for one
// job, prefixing cell keys with the job's result key so cells from
// different (experiment, requests, seed, quick) sweeps never collide —
// the key-namespace obligation Options.Cache puts on its caller.
type cellCache struct {
	c      *resultCache
	prefix string
}

func (cc cellCache) GetCell(key string) (any, bool) { return cc.c.getCell(cc.prefix + key) }
func (cc cellCache) PutCell(key string, v any)      { cc.c.putCell(cc.prefix+key, v) }
