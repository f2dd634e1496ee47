package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// quickParams is the suite's shared small-but-real search: three
// dimensions, tiny request budget, bounded generations.
func quickParams() Params {
	return Params{
		Objective: "p99",
		Space: SpaceSpec{
			Chiplets: []int{2, 1},
			PEs:      []int{8, 4},
			Policies: []string{"accelflow", "relief"},
		},
		Seed:           7,
		Requests:       60,
		Quick:          true,
		MaxGenerations: 3,
		Patience:       3,
	}
}

func runSearch(t *testing.T, p Params, st *SearchState, h Hooks) *Result {
	t.Helper()
	res, err := Run(context.Background(), p, st, h)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	p := quickParams()
	p.Parallelism = 1
	serial := runSearch(t, p, nil, Hooks{})
	p.Parallelism = 8
	parallel := runSearch(t, p, nil, Hooks{})
	if !bytes.Equal(serial.State, parallel.State) {
		t.Errorf("final SearchState differs between parallelism 1 and 8:\n%s\nvs\n%s", serial.State, parallel.State)
	}
	if serial.BestKey != parallel.BestKey || serial.BestScore != parallel.BestScore {
		t.Errorf("best differs: %q %.4f vs %q %.4f",
			serial.BestKey, serial.BestScore, parallel.BestKey, parallel.BestScore)
	}
	if serial.Evals != parallel.Evals {
		t.Errorf("evals differ: %d vs %d", serial.Evals, parallel.Evals)
	}
}

func TestSearchResumeMatchesUninterrupted(t *testing.T) {
	// The subtest names the searcher: hill climbing is the only one.
	t.Run("hill", func(t *testing.T) {
		p := quickParams()

		// Uninterrupted run, capturing the per-generation snapshots an
		// interrupted process would have left behind.
		var snaps [][]byte
		full := runSearch(t, p, nil, Hooks{
			OnGeneration: func(_ Progress, state []byte) {
				snaps = append(snaps, append([]byte(nil), state...))
			},
		})
		if len(snaps) < 2 {
			t.Fatalf("search finished in %d generations; need >= 2 to test resume", len(snaps))
		}

		// "Kill" after generation 1 and resume from its snapshot in a
		// fresh context (cold cache, like a new process).
		st, err := LoadState(snaps[1], p)
		if err != nil {
			t.Fatalf("LoadState: %v", err)
		}
		resumed := runSearch(t, p, st, Hooks{})
		if !bytes.Equal(full.State, resumed.State) {
			t.Errorf("resumed final state differs from uninterrupted:\n%s\nvs\n%s", full.State, resumed.State)
		}
		if full.BestKey != resumed.BestKey || full.BestScore != resumed.BestScore {
			t.Errorf("resumed best %q %.4f, uninterrupted %q %.4f",
				resumed.BestKey, resumed.BestScore, full.BestKey, full.BestScore)
		}
	})
}

func TestRevisitedCandidateServedFromCache(t *testing.T) {
	// Whatever generation 1 decides, generation 2's batch re-requests an
	// already-evaluated candidate: after a move, the old current point is
	// a neighbor of the new one; without a move, the widened radius-2
	// neighborhood still contains every radius-1 neighbor.
	p := quickParams()
	cached := 0
	res := runSearch(t, p, nil, Hooks{
		OnGeneration: func(pr Progress, _ []byte) { cached += pr.Cached },
	})
	if cached < 1 {
		t.Errorf("no candidate evaluation was served from the memo")
	}
	if res.CacheHits != cached {
		t.Errorf("Result.CacheHits = %d, generations reported %d cached evaluations", res.CacheHits, cached)
	}
}

func TestSearchConvergesAndImproves(t *testing.T) {
	p := quickParams()
	p.MaxGenerations = 10
	p.Patience = 2
	res := runSearch(t, p, nil, Hooks{})
	if !res.Converged {
		t.Errorf("search hit the generation cap instead of converging (generations=%d)", res.Generations)
	}

	var st SearchState
	if err := json.Unmarshal(res.State, &st); err != nil {
		t.Fatalf("unmarshal final state: %v", err)
	}
	if len(st.Trajectory) != res.Generations {
		t.Fatalf("trajectory has %d records, generations %d", len(st.Trajectory), res.Generations)
	}
	// Best-so-far is monotone non-increasing along the trajectory and
	// never worse than the starting candidate's score.
	for i := 1; i < len(st.Trajectory); i++ {
		if st.Trajectory[i].BestScore > st.Trajectory[i-1].BestScore {
			t.Errorf("bestScore rose at generation %d: %.4f -> %.4f",
				i, st.Trajectory[i-1].BestScore, st.Trajectory[i].BestScore)
		}
	}
	if start := st.Trajectory[0].CurScore; res.BestScore > start {
		t.Errorf("final best %.4f is worse than the starting candidate %.4f", res.BestScore, start)
	}
	// The winning config must be a complete, valid point of the space.
	if len(res.BestConfig) != 3 {
		t.Errorf("BestConfig has %d dims, want 3: %v", len(res.BestConfig), res.BestConfig)
	}

	// Same params, fresh run: the fixed best config is reproducible.
	again := runSearch(t, p, nil, Hooks{})
	if again.BestKey != res.BestKey {
		t.Errorf("best config not stable across runs: %q vs %q", again.BestKey, res.BestKey)
	}
}

func TestLoadStateRejectsMismatchedSearch(t *testing.T) {
	p := quickParams()
	p.MaxGenerations = 1
	res := runSearch(t, p, nil, Hooks{})

	if _, err := LoadState(res.State, p); err != nil {
		t.Fatalf("LoadState with matching params: %v", err)
	}
	other := p
	other.Seed++
	if _, err := LoadState(res.State, other); err == nil {
		t.Errorf("LoadState accepted a snapshot from a different seed")
	}
	var raw map[string]any
	if err := json.Unmarshal(res.State, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = stateVersion + 1
	b, _ := json.Marshal(raw)
	if _, err := LoadState(b, p); err == nil {
		t.Errorf("LoadState accepted an unknown state version")
	}
	if _, err := LoadState([]byte("{"), p); err == nil {
		t.Errorf("LoadState accepted corrupt JSON")
	}
}

func TestSignatureCoversResultParametersOnly(t *testing.T) {
	p := quickParams()
	base, err := p.Signature()
	if err != nil {
		t.Fatal(err)
	}
	// Execution-only knobs must not move the signature.
	exec := p
	exec.Parallelism = 8
	exec.Check = true
	if sig, _ := exec.Signature(); sig != base {
		t.Errorf("execution knobs changed the signature")
	}
	// Result-affecting parameters must.
	for name, mut := range map[string]func(*Params){
		"seed":      func(q *Params) { q.Seed++ },
		"objective": func(q *Params) { q.Objective = "energy" },
		"requests":  func(q *Params) { q.Requests = 80 },
		"space":     func(q *Params) { q.Space.PEs = append(q.Space.PEs, 12) },
		"slo":       func(q *Params) { q.SLOUs = 900 },
	} {
		q := p
		q.Space.PEs = append([]int(nil), p.Space.PEs...)
		mut(&q)
		sig, err := q.Signature()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sig == base {
			t.Errorf("changing %s did not change the signature", name)
		}
	}
}

func TestRunRejectsInvalidParams(t *testing.T) {
	q := quickParams()
	q.Objective = "latency"
	if _, err := Run(context.Background(), q, nil, Hooks{}); err == nil {
		t.Errorf("Run accepted an unknown objective")
	}
	r := quickParams()
	r.Space = SpaceSpec{}
	if _, err := Run(context.Background(), r, nil, Hooks{}); err == nil {
		t.Errorf("Run accepted an empty space")
	}
}

// TestValidateKnobRanges: zero knobs take their defaults, but negative
// or non-finite ones are rejected by name instead of being silently
// defaulted (or, for NaN, failing later when the signature is hashed).
func TestValidateKnobRanges(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want string // error substring; "" = valid
	}{
		{"zero knobs take defaults", func(p *Params) {
			p.MaxGenerations, p.Patience, p.SLOUs, p.LoadScale = 0, 0, 0, 0
		}, ""},
		{"negative generations", func(p *Params) { p.MaxGenerations = -1 }, "MaxGenerations"},
		{"negative patience", func(p *Params) { p.Patience = -2 }, "Patience"},
		{"negative slo", func(p *Params) { p.SLOUs = -100 }, "SLOUs"},
		{"NaN slo", func(p *Params) { p.SLOUs = math.NaN() }, "SLOUs"},
		{"infinite slo", func(p *Params) { p.SLOUs = math.Inf(1) }, "SLOUs"},
		{"negative load", func(p *Params) { p.LoadScale = -0.5 }, "LoadScale"},
		{"NaN load", func(p *Params) { p.LoadScale = math.NaN() }, "LoadScale"},
		{"infinite load", func(p *Params) { p.LoadScale = math.Inf(1) }, "LoadScale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := quickParams()
			tc.mut(&p)
			err := p.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want substring %q", err, tc.want)
			}
			if _, err := p.Signature(); err == nil {
				t.Errorf("Signature accepted parameters Validate rejects")
			}
		})
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, quickParams(), nil, Hooks{}); err == nil {
		t.Errorf("Run returned no error under a cancelled context")
	}
}
