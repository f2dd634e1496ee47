package tune

import (
	"encoding/json"
	"fmt"
)

// stateVersion guards SearchState decoding across format changes.
// Version 2 dropped the search strategy field (hill climbing is the
// only searcher).
const stateVersion = 2

// FrontierEntry is one of the best candidates seen so far.
type FrontierEntry struct {
	Key   string  `json:"key"`
	Score float64 `json:"score"`
}

// GenRecord is one generation's trajectory entry.
type GenRecord struct {
	Gen       int     `json:"gen"`
	Evaluated int     `json:"evaluated"`
	CurScore  float64 `json:"curScore"`
	BestScore float64 `json:"bestScore"`
	Moved     bool    `json:"moved"`
}

// SearchState is the search's complete mutable state, serialized after
// every generation. It is a pure function of (Params, generations
// run): resuming from a generation-N snapshot and running to
// completion produces byte-identical state to an uninterrupted search.
// That property forbids anything environment-dependent here — notably
// cache-hit counts, which differ between a warm in-process run and a
// resumed one (the resumed process re-evaluates candidates the dead
// process had cached). Hit counts live in Result, outside the
// byte-compared state.
type SearchState struct {
	Version int    `json:"version"`
	Sig     string `json:"sig"`

	Gen      int `json:"gen"`      // generations completed
	Stagnant int `json:"stagnant"` // generations since Best improved
	Radius   int `json:"radius"`   // hill climbing neighborhood radius
	Evals    int `json:"evals"`    // evaluations requested (cached or run)

	Cur      []int   `json:"cur"`
	CurKey   string  `json:"curKey"`
	CurScore float64 `json:"curScore"`

	Best      []int   `json:"best"`
	BestKey   string  `json:"bestKey"`
	BestScore float64 `json:"bestScore"`
	BestEval  Eval    `json:"bestEval"`

	Frontier   []FrontierEntry `json:"frontier"`
	Trajectory []GenRecord     `json:"trajectory"`

	Done      bool `json:"done"`
	Converged bool `json:"converged"` // stopped on patience, not generation cap
}

// Marshal renders the state canonically (encoding/json with struct
// field order) for snapshot files and byte-equality assertions.
func (st *SearchState) Marshal() ([]byte, error) { return json.Marshal(st) }

// LoadState decodes a snapshot and verifies it belongs to p: the
// embedded signature must match p's, so a snapshot can never silently
// continue a different search (other space, seed, or objective). The
// current and best candidates must also be points of p's space whose
// keys match the snapshot's, and the radius must be one hill climbing
// can reach, so a corrupt snapshot is an error here, not an index
// panic or an endless neighborhood walk inside Run.
func LoadState(data []byte, p Params) (*SearchState, error) {
	var st SearchState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("tune: bad search state: %w", err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("tune: search state version %d, want %d", st.Version, stateVersion)
	}
	sig, err := p.Signature()
	if err != nil {
		return nil, err
	}
	if st.Sig != sig {
		return nil, fmt.Errorf("tune: search state signature %.12s does not match these parameters (%.12s); refusing to resume a different search", st.Sig, sig)
	}
	sp, err := p.Space.Build()
	if err != nil {
		return nil, err
	}
	for _, pt := range []struct {
		name string
		cand []int
		key  string
	}{{"cur", st.Cur, st.CurKey}, {"best", st.Best, st.BestKey}} {
		if err := sp.check(pt.cand); err != nil {
			return nil, fmt.Errorf("%w (search state %s)", err, pt.name)
		}
		if k := sp.Key(pt.cand); k != pt.key {
			return nil, fmt.Errorf("tune: search state %s key %q does not match its candidate (%q)", pt.name, pt.key, k)
		}
	}
	if st.Radius < 1 || st.Radius > sp.maxLevels() {
		return nil, fmt.Errorf("tune: search state radius %d out of range [1,%d]", st.Radius, sp.maxLevels())
	}
	return &st, nil
}

// observe folds one evaluated candidate into Best and the frontier.
func (st *SearchState) observe(cand []int, key string, ev Eval) (improved bool) {
	if st.BestKey == "" || ev.Score < st.BestScore {
		st.Best = append([]int(nil), cand...)
		st.BestKey = key
		st.BestScore = ev.Score
		st.BestEval = ev
		improved = true
	}
	st.pushFrontier(key, ev.Score)
	return improved
}

// frontierSize bounds the kept best-candidates list.
const frontierSize = 3

// pushFrontier inserts (key, score) into the sorted frontier, keeping
// the frontierSize lowest scores. Ties break by key so the frontier is
// deterministic regardless of evaluation order.
func (st *SearchState) pushFrontier(key string, score float64) {
	for i, f := range st.Frontier {
		if f.Key == key {
			if score < f.Score {
				st.Frontier[i].Score = score
			}
			return
		}
	}
	st.Frontier = append(st.Frontier, FrontierEntry{Key: key, Score: score})
	for i := len(st.Frontier) - 1; i > 0; i-- {
		a, b := st.Frontier[i-1], st.Frontier[i]
		if b.Score < a.Score || (b.Score == a.Score && b.Key < a.Key) {
			st.Frontier[i-1], st.Frontier[i] = b, a
		}
	}
	if len(st.Frontier) > frontierSize {
		st.Frontier = st.Frontier[:frontierSize]
	}
}
