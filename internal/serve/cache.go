// Content-addressed result cache for the serving plane, and the owner
// of every finished job's rendered artifact bytes. Determinism makes
// every simulation result cacheable forever: a job's Values, report
// lines, and artifact bytes are pure functions of its submitted
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
// without occupying a queue slot, handing out a shared pointer.
//
// Artifact bytes are nearly all of a finished observed job's memory
// (about 2.1 MiB of trace for 150 requests against a few KB of values),
// and every retained job pins its entry whether or not the LRU still
// holds it. So the cache also owns those bytes, under a byte budget:
// every published entry with artifacts joins a second recency list,
// and publishing evicts its least recently used entries until the
// bytes held are within artifactBudget. The newest entry always stays,
// even alone over the budget, so a client can fetch its own job's
// artifacts right after the job is done. Evicting an entry revokes its
// artifacts for every job that shares it (they answer 410 on
// /artifacts and keep their values) and drops it from the LRU, so a
// resubmission re-runs and renders the same bytes again. The rule
// holds with caching off too: the scheduler always has a cache, which
// then keys nothing and only owns the bytes.
//
// Entries are immutable except for that one revocation, which swaps
// the artifacts pointer atomically, so a concurrent download either
// gets the whole bytes or none.
//
// Concurrency: the cache's own mutex guards both lists; it never takes
// the scheduler lock or a job's, so both may call into it while
// holding their own.
package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"accelflow/internal/obs"
)

// artifactBudget bounds the rendered artifact bytes the daemon holds
// for finished jobs, cached or retained. A constant like retainedJobs:
// 32 MiB is about fifteen 150-request observed jobs, and the newest
// entry is kept even when it alone is larger.
const artifactBudget = 32 << 20

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
	// ArtifactBytes is the rendered artifact bytes held for finished
	// jobs, ArtifactBudget its bound (exceeded only by a lone newest
	// entry), and ArtifactEvictions the entries whose artifacts were
	// revoked to stay within it. These count with caching off too.
	ArtifactBytes     int64  `json:"artifactBytes"`
	ArtifactBudget    int64  `json:"artifactBudget"`
	ArtifactEvictions uint64 `json:"artifactEvictions"`
}

// jobResultEntry is a finished job's output: everything a client can
// fetch after the job completes, as the bytes rendered when the run
// finished (Scheduler.execute). One entry is the result of the job that
// ran, its cache entry, and the result of every job completed from it,
// all sharing it read-only; only the budget revokes its artifacts.
type jobResultEntry struct {
	// values is the GET /values body after its id member (renderValues).
	values []byte
	// arts holds an observed job's exports; nil for other types and
	// once the budget has revoked them.
	arts atomic.Pointer[map[obs.Artifact][]byte]
	// size is the artifact bytes the entry was rendered with.
	size int64

	// Guarded by the publishing cache's mu: key is the entry's
	// ResultKey while the LRU holds it ("" otherwise), and lru and held
	// its elements of the cache's two recency lists while it is on them.
	key       string
	lru, held *list.Element
}

// newResultEntry builds an entry from a rendered values body and an
// observed job's artifacts (nil for other types).
func newResultEntry(values []byte, arts map[obs.Artifact][]byte) *jobResultEntry {
	e := &jobResultEntry{values: values}
	if arts != nil {
		// order-insensitive: a sum of lengths.
		for _, b := range arts {
			e.size += int64(len(b))
		}
		e.arts.Store(&arts)
	}
	return e
}

// artifact returns one export's bytes, or nil; evicted reports that
// the entry had artifacts and the budget revoked them.
func (e *jobResultEntry) artifact(a obs.Artifact) (b []byte, evicted bool) {
	arts := e.arts.Load()
	if arts == nil {
		return nil, e.size > 0
	}
	return (*arts)[a], false
}

// hasArtifacts reports whether the entry still holds its exports.
func (e *jobResultEntry) hasArtifacts() bool { return e.arts.Load() != nil }

// resultCache is a bounded LRU of finished jobs' results plus the
// byte-budgeted owner of their artifacts. Safe for concurrent use.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*jobResultEntry
	// lru lists the keyed entries and held the entries holding
	// artifact bytes, each most recently used first.
	lru, held list.List
	stats     CacheStats
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{capacity: capacity, items: make(map[string]*jobResultEntry)}
}

// getJob returns a completed-job entry, bumping it to most recent on
// both lists and counting the hit or miss.
func (c *resultCache) getJob(key string) (*jobResultEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(e.lru)
	if e.held != nil {
		c.held.MoveToFront(e.held)
	}
	return e, true
}

// publish records a finished job's entry: under key in the LRU unless
// key is "" (caching off, or a result that is not cacheable), evicting
// from its tail to stay under capacity; and, when the entry has
// artifacts, as the most recent holder of artifact bytes, revoking the
// least recently used others until the bytes held are within
// artifactBudget.
func (c *resultCache) publish(key string, e *jobResultEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if key != "" {
		if old := c.items[key]; old != nil {
			c.uncache(old)
		}
		e.key = key
		c.items[key] = e
		e.lru = c.lru.PushFront(e)
		for c.lru.Len() > c.capacity {
			c.uncache(c.lru.Back().Value.(*jobResultEntry))
			c.stats.Evictions++
		}
	}
	if e.size == 0 {
		return
	}
	e.held = c.held.PushFront(e)
	c.stats.ArtifactBytes += e.size
	for c.stats.ArtifactBytes > artifactBudget && c.held.Len() > 1 {
		c.revoke(c.held.Back().Value.(*jobResultEntry))
	}
}

// uncache drops e from the LRU. Requires mu.
func (c *resultCache) uncache(e *jobResultEntry) {
	c.lru.Remove(e.lru)
	delete(c.items, e.key)
	e.key, e.lru = "", nil
}

// revoke frees e's artifact bytes for every job sharing it, and drops
// it from the LRU so its next submission renders them again. Requires
// mu.
func (c *resultCache) revoke(e *jobResultEntry) {
	c.held.Remove(e.held)
	e.held = nil
	e.arts.Store(nil)
	c.stats.ArtifactBytes -= e.size
	c.stats.ArtifactEvictions++
	if e.lru != nil {
		c.uncache(e)
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
	st.ArtifactBudget = artifactBudget
	return st
}
