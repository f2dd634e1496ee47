package tune

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"accelflow/internal/check"
	"accelflow/internal/energy"
	"accelflow/internal/experiments"
	"accelflow/internal/services"
	"accelflow/internal/workload"
)

// Params fully determines a search. Every field above the
// execution-only block is folded into Signature(), so two Params with
// equal signatures provably walk the same trajectory; the
// execution-only knobs change wall clock, never results (the same
// contract experiments.Options documents for Parallelism and Check).
type Params struct {
	// Objective picks the score: "p99" (the default), "energy", or
	// "costperf" (see scoreObjective).
	Objective string `json:"objective"`
	// Space declares the dimensions searched over.
	Space SpaceSpec `json:"space"`
	// Seed roots every RNG stream: candidate evaluations derive theirs
	// from (Seed, candidate key).
	Seed int64 `json:"seed"`
	// Requests is the per-evaluation request budget (<=0: 600). Quick
	// caps it at 200 and trims the service mix, like experiments.Quick.
	Requests int `json:"requests"`
	// LoadScale scales the service mix arrival rates (0: 1.0).
	LoadScale float64 `json:"loadScale"`
	// SLOUs is the p99 objective's latency target in microseconds
	// (0: 1500).
	SLOUs float64 `json:"sloUs"`
	// MaxGenerations bounds proposal generations (0: 30).
	MaxGenerations int `json:"maxGenerations"`
	// Patience stops the search after this many consecutive
	// generations without a best-score improvement (0: 3).
	Patience int `json:"patience"`
	// Quick shrinks evaluations for tests and CI.
	Quick bool `json:"quick"`

	// Execution-only knobs: excluded from Signature() because they
	// never change search results, only how they are computed.
	Parallelism int  `json:"-"`
	Check       bool `json:"-"`
}

// Default constants.
const (
	defaultRequests    = 600
	quickRequestCap    = 200
	defaultLoadScale   = 1.0
	defaultSLOUs       = 1500.0
	defaultGenerations = 30
	defaultPatience    = 3
)

// withDefaults resolves zero values so Signature and Run agree on the
// effective parameters.
func (p Params) withDefaults() Params {
	if p.Objective == "" {
		p.Objective = "p99"
	}
	if p.Requests <= 0 {
		p.Requests = defaultRequests
	}
	if p.Quick && p.Requests > quickRequestCap {
		p.Requests = quickRequestCap
	}
	if p.LoadScale <= 0 {
		p.LoadScale = defaultLoadScale
	}
	if p.SLOUs <= 0 {
		p.SLOUs = defaultSLOUs
	}
	if p.MaxGenerations <= 0 {
		p.MaxGenerations = defaultGenerations
	}
	if p.Patience <= 0 {
		p.Patience = defaultPatience
	}
	return p
}

// Validate checks the parameters without running anything: knob
// ranges, the objective name, and the space spec (via
// Build). Zero knobs take their defaults; negative or non-finite ones
// are errors, not defaults.
func (p Params) Validate() error {
	switch {
	case p.MaxGenerations < 0 || p.Patience < 0:
		return fmt.Errorf("tune: MaxGenerations and Patience must be non-negative, got %d/%d", p.MaxGenerations, p.Patience)
	case !(p.SLOUs >= 0) || math.IsInf(p.SLOUs, 1):
		return fmt.Errorf("tune: SLOUs must be non-negative and finite, got %v", p.SLOUs)
	case !(p.LoadScale >= 0) || math.IsInf(p.LoadScale, 1):
		return fmt.Errorf("tune: LoadScale must be non-negative and finite, got %v", p.LoadScale)
	}
	p = p.withDefaults()
	if !validObjective(p.Objective) {
		return fmt.Errorf("tune: unknown objective %q (want p99, energy, or costperf)", p.Objective)
	}
	_, err := p.Space.Build()
	return err
}

// Signature hashes the result-determining parameters. It guards
// SearchState resume and names the serve layer's result-cache slot, so
// it must cover exactly the fields that can change the trajectory:
// defaulted search parameters plus the built space's canonical form
// (built, not the raw spec, so map ordering in PEMix cannot matter).
func (p Params) Signature() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	p = p.withDefaults()
	sp, err := p.Space.Build()
	if err != nil {
		return "", err
	}
	id := struct {
		Objective      string  `json:"objective"`
		Space          string  `json:"space"`
		Seed           int64   `json:"seed"`
		Requests       int     `json:"requests"`
		LoadScale      float64 `json:"loadScale"`
		SLOUs          float64 `json:"sloUs"`
		MaxGenerations int     `json:"maxGenerations"`
		Patience       int     `json:"patience"`
		Quick          bool    `json:"quick"`
	}{p.Objective, sp.Signature(), p.Seed, p.Requests, p.LoadScale,
		p.SLOUs, p.MaxGenerations, p.Patience, p.Quick}
	b, err := json.Marshal(id)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Progress reports one completed generation to Hooks.OnGeneration; the
// CLI and the serve layer render it as one NDJSON line.
type Progress struct {
	Gen       int     `json:"gen"`
	Evaluated int     `json:"evaluated"` // candidates requested this generation
	Cached    int     `json:"cached"`    // of those, served from the run's memo
	Moved     bool    `json:"moved"`
	CurKey    string  `json:"curKey"`
	CurScore  float64 `json:"curScore"`
	BestKey   string  `json:"bestKey"`
	BestScore float64 `json:"bestScore"`
	Stagnant  int     `json:"stagnant"`
	Radius    int     `json:"radius"` // neighborhood radius for the next generation

	Frontier    []FrontierEntry `json:"frontier"`
	TotalEvals  int             `json:"totalEvals"`
	TotalCached int             `json:"totalCached"`
}

// Hooks are Run's observation points. Both are optional.
type Hooks struct {
	// OnGeneration fires after each generation with the progress record
	// and the freshly serialized SearchState (the resume snapshot).
	// Called from the driver goroutine, in generation order.
	OnGeneration func(pr Progress, state []byte)
	// OnEval forwards the sweep-cell event of every evaluation the
	// search runs; revisits served from the memo run nothing and send
	// none (concurrent; see experiments.Options.OnCell for the contract).
	OnEval func(ev experiments.CellEvent)
}

// Result is a finished search.
type Result struct {
	BestKey    string            `json:"bestKey"`
	BestScore  float64           `json:"bestScore"`
	BestEval   Eval              `json:"bestEval"`
	BestConfig map[string]string `json:"bestConfig"`
	Objective  string            `json:"objective"`

	Generations int  `json:"generations"`
	Evals       int  `json:"evals"`
	CacheHits   int  `json:"cacheHits"` // revisits served from the memo; a resumed run's memo starts empty
	Converged   bool `json:"converged"`

	// State is the final SearchState snapshot; resumed and
	// uninterrupted searches produce identical bytes here.
	State json.RawMessage `json:"state"`
}

// Run executes (or, when st is non-nil, resumes) the search to
// completion and returns the result. st must come from LoadState with
// the same Params; passing nil starts fresh. Determinism contract:
// the full trajectory — every candidate visited, every score, the
// final SearchState bytes — is a pure function of Params, regardless
// of Parallelism, Check, or where a resumed snapshot was taken. Only
// Result.CacheHits may differ, and only after a resume.
func Run(ctx context.Context, p Params, st *SearchState, h Hooks) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	sp, err := p.Space.Build()
	if err != nil {
		return nil, err
	}
	sig, err := p.Signature()
	if err != nil {
		return nil, err
	}
	if st == nil {
		start := sp.Start()
		st = &SearchState{
			Version: stateVersion,
			Sig:     sig,
			Radius:  1,
			Cur:     start,
			CurKey:  sp.Key(start),
		}
	} else if st.Sig != sig {
		return nil, fmt.Errorf("tune: search state signature mismatch (LoadState with the same Params first)")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// The service mix evaluated against: the paper's SocialNetwork
	// catalog, trimmed under Quick exactly like experiments does.
	svcs := services.SocialNetwork()
	if p.Quick && len(svcs) > 3 {
		svcs = svcs[:3]
	}

	// memo holds every evaluation this run has made, by candidate key.
	// Only Run's own goroutine touches it: evaluate serves revisits
	// from it and sends only the misses to the sweep pool.
	memo := map[string]Eval{}
	cacheHits := 0

	evaluate := func(batch [][]int) ([]Eval, int, error) {
		evals := make([]Eval, len(batch))
		var misses []int
		var cells []experiments.Cell[Eval]
		for i, cand := range batch {
			key := sp.Key(cand)
			if ev, ok := memo[key]; ok {
				evals[i] = ev
				continue
			}
			misses = append(misses, i)
			cells = append(cells, experiments.Cell[Eval]{
				Key: key,
				Run: func(seed int64) (Eval, error) {
					cfg, pol, err := sp.Materialize(cand)
					if err != nil {
						return Eval{}, err
					}
					spec := &workload.RunSpec{
						Config:  cfg,
						Policy:  pol,
						Sources: workload.Mix(svcs, p.LoadScale, p.Requests),
						Seed:    seed,
					}
					if p.Check {
						spec.Check = check.New()
					}
					res, err := spec.RunCtx(ctx)
					if err != nil {
						return Eval{}, err
					}
					rep := energy.Integrate(energy.DefaultPower(), res.Engine, res.Elapsed)
					ev := measure(res, rep)
					ev.Score, err = scoreObjective(p.Objective, cfg, res, ev, p.SLOUs)
					if err != nil {
						return Eval{}, err
					}
					return ev, nil
				},
			})
		}
		ran, err := experiments.RunCells(experiments.Options{
			Seed:        p.Seed,
			Parallelism: p.Parallelism,
			Ctx:         ctx,
			OnCell:      h.OnEval,
		}, cells)
		if err != nil {
			return nil, 0, err
		}
		for j, i := range misses {
			evals[i] = ran[j]
			memo[cells[j].Key] = ran[j]
		}
		return evals, len(batch) - len(misses), nil
	}

	// validBatch drops candidates the space rejects and deduplicates by
	// key (keeping first occurrence), so a batch never evaluates the
	// same cell twice — cached counts stay parallelism-independent.
	validBatch := func(cands [][]int, excludeKey string) [][]int {
		seen := map[string]bool{}
		var out [][]int
		for _, c := range cands {
			k := sp.Key(c)
			if k == excludeKey || seen[k] {
				continue
			}
			if _, _, err := sp.Materialize(c); err != nil {
				continue
			}
			seen[k] = true
			out = append(out, c)
		}
		return out
	}

	for !st.Done {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		var batch [][]int
		if st.Gen == 0 {
			// Generation 0 scores the deterministic starting candidate
			// (the first level of every dimension) to seed Cur and Best.
			batch = validBatch([][]int{st.Cur}, "")
			if len(batch) == 0 {
				return nil, fmt.Errorf("tune: starting candidate %q is invalid", st.CurKey)
			}
		} else {
			batch = validBatch(sp.Neighbors(st.Cur, st.Radius), st.CurKey)
		}

		evals, genCached, err := evaluate(batch)
		if err != nil {
			return nil, err
		}
		st.Evals += len(batch)
		cacheHits += genCached

		// Fold the batch into Best/frontier, then apply the hill
		// climbing move rule. Ties break by candidate key so the
		// outcome is independent of evaluation order.
		improved := false
		bestIdx := -1
		for i := range batch {
			key := sp.Key(batch[i])
			if st.observe(batch[i], key, evals[i]) {
				improved = true
			}
			if bestIdx < 0 || evals[i].Score < evals[bestIdx].Score ||
				(evals[i].Score == evals[bestIdx].Score && key < sp.Key(batch[bestIdx])) {
				bestIdx = i
			}
		}

		moved := false
		switch {
		case st.Gen == 0:
			st.CurScore = evals[0].Score
		case bestIdx < 0:
			// Nothing valid to evaluate this generation.
		default:
			if evals[bestIdx].Score < st.CurScore {
				st.Cur = append([]int(nil), batch[bestIdx]...)
				st.CurKey = sp.Key(st.Cur)
				st.CurScore = evals[bestIdx].Score
				st.Radius = 1
				moved = true
			} else {
				// Stuck: widen the neighborhood (bounded by the widest
				// dimension, beyond which it cannot add candidates).
				if st.Radius < sp.maxLevels() {
					st.Radius++
				}
			}
		}

		if st.Gen == 0 || improved {
			st.Stagnant = 0
		} else {
			st.Stagnant++
		}
		st.Trajectory = append(st.Trajectory, GenRecord{
			Gen: st.Gen, Evaluated: len(batch), CurScore: st.CurScore,
			BestScore: st.BestScore, Moved: moved,
		})
		st.Gen++
		if st.Stagnant >= p.Patience {
			st.Done, st.Converged = true, true
		} else if st.Gen > p.MaxGenerations {
			st.Done = true
		}

		if h.OnGeneration != nil {
			snap, err := st.Marshal()
			if err != nil {
				return nil, err
			}
			pr := Progress{
				Gen: st.Gen - 1, Evaluated: len(batch), Cached: genCached,
				Moved: moved, CurKey: st.CurKey, CurScore: st.CurScore,
				BestKey: st.BestKey, BestScore: st.BestScore,
				Stagnant: st.Stagnant, Radius: st.Radius,
				Frontier:   append([]FrontierEntry(nil), st.Frontier...),
				TotalEvals: st.Evals, TotalCached: cacheHits,
			}
			h.OnGeneration(pr, snap)
		}
	}

	finalState, err := st.Marshal()
	if err != nil {
		return nil, err
	}
	return &Result{
		BestKey:     st.BestKey,
		BestScore:   st.BestScore,
		BestEval:    st.BestEval,
		BestConfig:  sp.Levels(st.Best),
		Objective:   p.Objective,
		Generations: st.Gen,
		Evals:       st.Evals,
		CacheHits:   cacheHits,
		Converged:   st.Converged,
		State:       finalState,
	}, nil
}
