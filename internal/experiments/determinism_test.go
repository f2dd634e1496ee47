package experiments

import (
	"math"
	"testing"
)

// sameValues compares two Values maps for exact (bit-level) equality.
func sameValues(t *testing.T, label string, a, b map[string]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: %d keys vs %d keys", label, len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			t.Errorf("%s: key %q missing from second run", label, k)
			continue
		}
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Errorf("%s: %q = %v vs %v (not bit-identical)", label, k, va, vb)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			t.Errorf("%s: key %q missing from first run", label, k)
		}
	}
}

// TestParallelismDoesNotChangeResults is the sweep engine's core
// contract, checked on every registry experiment of the shared quick
// pass: a serial run (Parallelism 1) and a heavily oversubscribed run
// (Parallelism 8) of the same experiment with the same seed yield
// bit-identical Values and identical text, and a repeated parallel run
// agrees too (no dependence on goroutine scheduling). fig14 skips the
// repeat, which would cost a third throughput search; p1-vs-p8 already
// covers scheduling independence there.
func TestParallelismDoesNotChangeResults(t *testing.T) {
	runs := quickRegistry()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && slowID(id) {
				t.Skip("throughput search is slow")
			}
			r := runs[id]
			if r.p1.err != nil {
				t.Fatalf("serial run: %v", r.p1.err)
			}
			if r.p8.err != nil {
				t.Fatalf("parallel run: %v", r.p8.err)
			}
			sameValues(t, id+" p1-vs-p8", r.p1.res.Values, r.p8.res.Values)
			if r.p1.res.Text() != r.p8.res.Text() {
				t.Errorf("%s: report text differs between serial and parallel runs", id)
			}
			if id == "fig14" {
				return
			}
			if r.p8Again.err != nil {
				t.Fatalf("repeated parallel run: %v", r.p8Again.err)
			}
			sameValues(t, id+" p8-vs-p8", r.p8.res.Values, r.p8Again.res.Values)
			if r.p8.res.Text() != r.p8Again.res.Text() {
				t.Errorf("%s: report text differs across repeated parallel runs", id)
			}
		})
	}
}

// TestSeedChangesResults guards against the opposite failure: a seed
// that is silently ignored would make the determinism test vacuous.
func TestSeedChangesResults(t *testing.T) {
	a, err := Fig11Latency(Options{Requests: 60, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig11Latency(Options{Requests: 60, Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for k, va := range a.Values {
		if vb, ok := b.Values[k]; ok && va != vb {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seeds 1 and 2 produced identical fig11 Values; seed is not threaded through")
	}
}

// TestRunManyOrderAndIsolation: RunMany returns outcomes in the order
// ids were given, regardless of completion order, and reports unknown
// ids as per-outcome errors.
func TestRunManyOrderAndIsolation(t *testing.T) {
	ids := []string{"tab3", "area", "nope", "tab1"}
	outs := RunMany(ids, Options{Requests: 60, Seed: 1, Quick: true, Parallelism: 4})
	if len(outs) != len(ids) {
		t.Fatalf("got %d outcomes for %d ids", len(outs), len(ids))
	}
	for i, id := range ids {
		if outs[i].ID != id {
			t.Errorf("outcome %d is %q, want %q", i, outs[i].ID, id)
		}
	}
	if outs[2].Err == nil {
		t.Error("unknown id did not error")
	}
	for _, i := range []int{0, 1, 3} {
		if outs[i].Err != nil {
			t.Errorf("%s failed: %v", ids[i], outs[i].Err)
		}
		if outs[i].Res == nil || len(outs[i].Res.Values) == 0 {
			t.Errorf("%s produced no values", ids[i])
		}
	}
}

// TestRunCellsErrorDeterministic: with several failing cells, the
// lowest-indexed failure wins at any parallelism.
func TestRunCellsErrorDeterministic(t *testing.T) {
	mk := func() []Cell[int] {
		return []Cell[int]{
			{Key: "ok", Run: func(int64) (int, error) { return 1, nil }},
			{Key: "bad1", Run: func(int64) (int, error) { return 0, errUnknownExperiment("bad1") }},
			{Key: "bad2", Run: func(int64) (int, error) { return 0, errUnknownExperiment("bad2") }},
		}
	}
	for _, par := range []int{1, 8} {
		_, err := RunCells(Options{Parallelism: par}, mk())
		if err == nil || err.Error() != "unknown experiment bad1" {
			t.Errorf("parallelism %d: err = %v, want bad1's error", par, err)
		}
	}
}

// TestRunCellsSeedsAreKeyDerived: each cell sees DeriveSeed(seed, key),
// independent of submission index or worker count.
func TestRunCellsSeedsAreKeyDerived(t *testing.T) {
	cells := []Cell[int64]{
		{Key: "a", Run: func(s int64) (int64, error) { return s, nil }},
		{Key: "b", Run: func(s int64) (int64, error) { return s, nil }},
	}
	o1 := Options{Seed: 5, Parallelism: 1}
	o8 := Options{Seed: 5, Parallelism: 8}
	r1, err := RunCells(o1, cells)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunCells(o8, []Cell[int64]{cells[1], cells[0]})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r8[1] || r1[1] != r8[0] {
		t.Error("cell seeds depend on submission order, not on keys")
	}
	if r1[0] == r1[1] {
		t.Error("distinct keys got the same seed")
	}
}
