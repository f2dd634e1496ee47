// Tests for RunCells' Options.Cache integration: memoized cells skip
// execution, events flag Cached, wrong-type entries fall through to a
// real run, and — the precondition for any shared cell cache — every
// sweep experiment uses globally unique cell keys.
package experiments

import (
	"fmt"
	"sync"
	"testing"
)

// recordingCache is a map-backed CellCache that counts traffic.
type recordingCache struct {
	mu   sync.Mutex
	m    map[string]any
	hits int
	puts int
}

func newRecordingCache() *recordingCache {
	return &recordingCache{m: map[string]any{}}
}

func (c *recordingCache) GetCell(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *recordingCache) PutCell(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
	c.puts++
}

// keyAudit is a CellCache that never hits: it records every key a run
// looks up and each key looked up more than once. A replaying cache
// would hide a reused key, since the second lookup hits and nothing is
// stored twice.
type keyAudit struct {
	mu   sync.Mutex
	seen map[string]bool
	dups []string
}

func newKeyAudit() *keyAudit { return &keyAudit{seen: map[string]bool{}} }

func (a *keyAudit) GetCell(key string) (any, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen[key] {
		a.dups = append(a.dups, key)
	}
	a.seen[key] = true
	return nil, false
}

func (a *keyAudit) PutCell(string, any) {}

// TestRunCellsCache: the first sweep populates the cache; an identical
// second sweep returns the same results without running any cell and
// marks every cell event Cached.
func TestRunCellsCache(t *testing.T) {
	cache := newRecordingCache()
	var ran int
	cells := func() []Cell[int] {
		out := make([]Cell[int], 5)
		for i := range out {
			i := i
			out[i] = Cell[int]{
				Key: fmt.Sprintf("cell%d", i),
				Run: func(seed int64) (int, error) {
					ran++
					return i * 10, nil
				},
			}
		}
		return out
	}
	o := Options{Seed: 1, Parallelism: 1, Cache: cache}

	first, err := RunCells(o, cells())
	if err != nil {
		t.Fatal(err)
	}
	if ran != 5 || cache.puts != 5 || cache.hits != 0 {
		t.Fatalf("cold sweep: ran=%d puts=%d hits=%d", ran, cache.puts, cache.hits)
	}

	var events []CellEvent
	o.OnCell = func(ev CellEvent) { events = append(events, ev) }
	second, err := RunCells(o, cells())
	if err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("warm sweep ran %d extra cells, want 0", ran-5)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cell %d: cached %d != cold %d", i, second[i], first[i])
		}
	}
	if len(events) != 5 {
		t.Fatalf("%d cell events, want 5", len(events))
	}
	for _, ev := range events {
		if !ev.Cached {
			t.Errorf("cell %s event not marked Cached on warm sweep", ev.Key)
		}
	}
}

// TestRunCellsCacheWrongType: a cached value of the wrong dynamic type
// (a key-namespace bug upstream) is ignored and the cell re-runs
// rather than corrupting the sweep.
func TestRunCellsCacheWrongType(t *testing.T) {
	cache := newRecordingCache()
	cache.PutCell("k", "poisoned string, not an int")
	ran := false
	got, err := RunCells(Options{Seed: 1, Parallelism: 1, Cache: cache},
		[]Cell[int]{{Key: "k", Run: func(seed int64) (int, error) { ran = true; return 42, nil }}})
	if err != nil {
		t.Fatal(err)
	}
	if !ran || got[0] != 42 {
		t.Fatalf("ran=%t got=%v; a wrong-type hit must fall through to the run", ran, got)
	}
	if v, ok := cache.GetCell("k"); !ok || v != any(42) {
		t.Errorf("re-run did not replace the poisoned entry: %v %t", v, ok)
	}
}

// TestRunCellsCacheSkipsFailedCells: only successful cell outputs are
// stored.
func TestRunCellsCacheSkipsFailedCells(t *testing.T) {
	cache := newRecordingCache()
	_, err := RunCells(Options{Seed: 1, Parallelism: 1, Cache: cache},
		[]Cell[int]{{Key: "boom", Run: func(seed int64) (int, error) { return 0, fmt.Errorf("cell failed") }}})
	if err == nil {
		t.Fatal("failing sweep reported success")
	}
	if cache.puts != 0 {
		t.Fatalf("failed cell was cached (%d puts)", cache.puts)
	}
}

// TestSweepCellKeysUnique audits every registered experiment: within
// one run, no cell key is ever used twice. Unique keys are what let a
// per-run cell cache (serve's cancelled-sweep reuse) replay an output
// without risking collision with a different cell — and they are
// already what keeps per-cell RNG streams (sim.DeriveSeed) disjoint.
// The keys are the ones the shared quick pass's Parallelism 1 runs
// looked up.
func TestSweepCellKeysUnique(t *testing.T) {
	runs := quickRegistry()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			r := runs[id]
			if r.p1.err != nil {
				t.Fatalf("%s: %v", id, r.p1.err)
			}
			if len(r.keys.dups) > 0 {
				t.Errorf("%s reused cell keys: %v", id, r.keys.dups)
			}
		})
	}
}
