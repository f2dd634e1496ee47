// The audit behind TestSweepCellKeysUnique: every sweep experiment
// uses unique cell keys within one run.
package experiments

import (
	"sync"
	"testing"
)

// keyAudit records, through Options.OnCell, every cell key a run
// reports and each key reported more than once. OnCell fires once per
// cell, so a repeated key is a key two cells share.
type keyAudit struct {
	mu   sync.Mutex
	seen map[string]bool
	dups []string
}

func newKeyAudit() *keyAudit { return &keyAudit{seen: map[string]bool{}} }

func (a *keyAudit) onCell(ev CellEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen[ev.Key] {
		a.dups = append(a.dups, ev.Key)
	}
	a.seen[ev.Key] = true
}

// TestSweepCellKeysUnique audits every registered experiment: within
// one run, no cell key is ever used twice. Unique keys are what keep
// per-cell RNG streams (sim.DeriveSeed) disjoint: two cells sharing a
// key would replay one trajectory. The keys are the ones the shared
// quick pass's Parallelism 1 runs reported.
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
