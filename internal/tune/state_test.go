package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// snapshotParams is the one-generation quick search whose snapshot the
// loader tests corrupt.
func snapshotParams() Params {
	p := quickParams()
	p.MaxGenerations = 1
	return p
}

// quickSnapshot runs snapshotParams to completion and returns its
// final SearchState bytes.
func quickSnapshot(tb testing.TB) []byte {
	tb.Helper()
	res, err := Run(context.Background(), snapshotParams(), nil, Hooks{})
	if err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return res.State
}

// withField returns snap with one top-level field replaced.
func withField(t *testing.T, snap []byte, field string, v any) []byte {
	t.Helper()
	var raw map[string]any
	if err := json.Unmarshal(snap, &raw); err != nil {
		t.Fatal(err)
	}
	raw[field] = v
	b, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadStateRejectsCorruptCandidates: a snapshot with the right
// signature but a current or best candidate that is not a point of the
// space, or whose key does not name it, is refused at load time. Run
// would otherwise index a level list with it and panic. So is a radius
// hill climbing cannot reach: Neighbors would step through all of it.
func TestLoadStateRejectsCorruptCandidates(t *testing.T) {
	p := snapshotParams()
	snap := quickSnapshot(t)
	st, err := LoadState(snap, p)
	if err != nil {
		t.Fatalf("LoadState of an intact snapshot: %v", err)
	}
	sp, err := p.Space.Build()
	if err != nil {
		t.Fatal(err)
	}
	// otherKey is the key of a real candidate that is not cand (every
	// dimension of the quick space has two levels).
	otherKey := func(cand []int) string {
		n := append([]int(nil), cand...)
		n[0] = 1 - n[0]
		return sp.Key(n)
	}
	cases := []struct {
		name, field string
		v           any
	}{
		{"cur too short", "cur", []int{99}},
		{"cur index past the last level", "cur", []int{0, 0, 2}},
		{"cur negative index", "cur", []int{-1, 0, 0}},
		{"cur missing", "cur", nil},
		{"best too long", "best", []int{0, 0, 0, 0}},
		{"best index past the last level", "best", []int{0, 5, 0}},
		{"best missing", "best", nil},
		{"curKey names another candidate", "curKey", otherKey(st.Cur)},
		{"bestKey names another candidate", "bestKey", otherKey(st.Best)},
		{"bestKey missing", "bestKey", ""},
		{"radius zero", "radius", 0},
		{"radius past the widest dimension", "radius", 3},
		{"radius huge", "radius", int64(4e18)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadState(withField(t, snap, tc.field, tc.v), p); err == nil {
				t.Errorf("LoadState accepted %s = %v", tc.field, tc.v)
			}
		})
	}
}

// TestLoadStateRejectsOldVersion: a version-1 snapshot, which still
// named its search strategy, fails on its version rather than on a
// signature mismatch, so the error says what is wrong with it.
func TestLoadStateRejectsOldVersion(t *testing.T) {
	snap := withField(t, quickSnapshot(t), "version", 1)
	snap = withField(t, snap, "strategy", "hill")
	_, err := LoadState(snap, snapshotParams())
	if err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("LoadState of a version-1 snapshot = %v, want a version error", err)
	}
}

// FuzzLoadState feeds arbitrary snapshots to the loader. It must never
// panic, and a snapshot it accepts must be safe to resume: its current
// candidate has a key, that key is the recorded one, and the state
// survives a Marshal/LoadState round trip byte for byte.
func FuzzLoadState(f *testing.F) {
	p := snapshotParams()
	snap := quickSnapshot(f)
	f.Add(snap)
	var raw map[string]any
	if err := json.Unmarshal(snap, &raw); err != nil {
		f.Fatal(err)
	}
	raw["cur"] = []int{99}
	repro, err := json.Marshal(raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(repro)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{`))
	sp, err := p.Space.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadState(data, p)
		if err != nil {
			return
		}
		if k := sp.Key(st.Cur); k != st.CurKey {
			t.Fatalf("accepted state has curKey %q, its candidate's key is %q", st.CurKey, k)
		}
		enc, err := st.Marshal()
		if err != nil {
			t.Fatalf("accepted state does not marshal: %v", err)
		}
		back, err := LoadState(enc, p)
		if err != nil {
			t.Fatalf("re-marshalled state %s does not load: %v", enc, err)
		}
		again, err := back.Marshal()
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the state: %s became %s (%v)", enc, again, err)
		}
	})
}
