// Package tune is the closed-loop autotuner: a deterministic,
// parallel design-space searcher over the simulated server's
// architectural knobs (chiplet organization, PE provisioning per
// accelerator kind, orchestration policy, queue depths, TCP timeout)
// against a pluggable objective evaluated by short simulation runs.
//
// The registry answers "what does config X do"; a search answers
// "which config survives this traffic". Every candidate evaluation is
// one checked workload.RunSpec run whose RNG stream derives from
// (Params.Seed, candidate key) via sim.DeriveSeed, and each
// generation's batch fans out through experiments.RunCells — the same
// worker pool the sweeps use — so a search is bit-reproducible at any
// parallelism, and a revisited candidate is served from the run's
// memo instead of re-simulating. All mutable search state lives in a
// serializable SearchState, making an interrupted search resumable
// with a byte-identical trajectory.
package tune

import (
	"fmt"
	"sort"
	"strings"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/sim"
)

// SpaceSpec declares a search space on the wire: each non-empty field
// contributes one bounded dimension, in the field order below. It is
// plain data so the accelsimd job API and the accelsim CLI can both
// express a space, and so a space is part of a search's canonical
// signature. The search starts at the FIRST level of every dimension,
// so put the baseline value first.
type SpaceSpec struct {
	// Chiplets lists chiplet-organization plans (config.ChipletPlan
	// values: 1, 2, 3, 4, or 6).
	Chiplets []int `json:"chiplets,omitempty"`
	// PEs lists uniform PEs-per-accelerator levels (Config.PEsPerAccel).
	PEs []int `json:"pes,omitempty"`
	// PEMix adds one dimension per named accelerator kind (e.g. "TCP",
	// "Ser"), overriding that kind's PE pool (Config.PEMix) over the
	// listed levels.
	PEMix map[string][]int `json:"peMix,omitempty"`
	// Policies lists orchestration policies by name: "accelflow",
	// "relief", "cohort", "cpucentric", "nonacc".
	Policies []string `json:"policies,omitempty"`
	// QueueDepths lists input/output queue entry counts (both set
	// together).
	QueueDepths []int `json:"queueDepths,omitempty"`
	// TCPTimeoutUs lists armed response-trace timeouts in microseconds.
	TCPTimeoutUs []float64 `json:"tcpTimeoutUs,omitempty"`
}

// policyByName maps the wire policy names onto engine policies.
var policyByName = map[string]func() engine.Policy{
	"accelflow":  engine.AccelFlow,
	"relief":     engine.RELIEF,
	"cohort":     func() engine.Policy { return engine.Cohort(engine.DefaultCohortPairs()) },
	"cpucentric": engine.CPUCentric,
	"nonacc":     engine.NonAcc,
}

// kindByName resolves an accelerator-kind name ("TCP", "Encr", ...).
func kindByName(name string) (config.AccelKind, bool) {
	for _, k := range config.AllAccelKinds() {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

var validChipletPlans = map[int]bool{1: true, 2: true, 3: true, 4: true, 6: true}

// Dim is one bounded search dimension: an ordered list of levels plus
// the mutation each level applies to a candidate configuration. Level
// labels are part of the candidate key, so they must be stable.
type Dim struct {
	Name   string
	Levels []string
	apply  func(c *config.Config, p *engine.Policy, idx int) error
}

// Space is a built search space: the ordered dimension list. A
// candidate is one index per dimension; validity is decided by
// materializing it and running config.Validate.
type Space struct {
	Dims []Dim
}

// Build validates the spec and constructs the Space. At least one
// dimension must be present; searches that exercise the acceptance
// criteria use three or more.
func (s SpaceSpec) Build() (*Space, error) {
	sp := &Space{}
	if len(s.Chiplets) > 0 {
		levels := make([]string, len(s.Chiplets))
		plans := append([]int(nil), s.Chiplets...)
		for i, n := range plans {
			if !validChipletPlans[n] {
				return nil, fmt.Errorf("tune: unknown chiplet plan %d (want 1, 2, 3, 4, or 6)", n)
			}
			levels[i] = fmt.Sprintf("%d", n)
		}
		sp.Dims = append(sp.Dims, Dim{Name: "chiplets", Levels: levels,
			apply: func(c *config.Config, _ *engine.Policy, idx int) error {
				return c.ApplyChipletPlan(config.ChipletPlan(plans[idx]))
			}})
	}
	if len(s.PEs) > 0 {
		levels := make([]string, len(s.PEs))
		counts := append([]int(nil), s.PEs...)
		for i, n := range counts {
			if n <= 0 {
				return nil, fmt.Errorf("tune: pes level must be positive, got %d", n)
			}
			levels[i] = fmt.Sprintf("%d", n)
		}
		sp.Dims = append(sp.Dims, Dim{Name: "pes", Levels: levels,
			apply: func(c *config.Config, _ *engine.Policy, idx int) error {
				c.PEsPerAccel = counts[idx]
				return nil
			}})
	}
	// PEMix dimensions in accelerator-encoding order so the dimension
	// order (and therefore every candidate key) is independent of map
	// iteration order.
	for _, kind := range config.AllAccelKinds() {
		counts, ok := s.PEMix[kind.String()]
		if !ok {
			continue
		}
		if len(counts) == 0 {
			// A zero-level dimension would leave no candidate to start
			// the search from.
			return nil, fmt.Errorf("tune: peMix[%s] lists no levels", kind)
		}
		kind := kind
		levels := make([]string, len(counts))
		own := append([]int(nil), counts...)
		for i, n := range own {
			if n <= 0 {
				return nil, fmt.Errorf("tune: peMix[%s] level must be positive, got %d", kind, n)
			}
			levels[i] = fmt.Sprintf("%d", n)
		}
		sp.Dims = append(sp.Dims, Dim{Name: "pe/" + kind.String(), Levels: levels,
			apply: func(c *config.Config, _ *engine.Policy, idx int) error {
				c.PEMix[kind] = own[idx]
				return nil
			}})
	}
	names := make([]string, 0, len(s.PEMix))
	for name := range s.PEMix {
		names = append(names, name)
	}
	sort.Strings(names) // the same unknown kind is named whatever the map order
	for _, name := range names {
		if _, ok := kindByName(name); !ok {
			return nil, fmt.Errorf("tune: unknown accelerator kind %q in peMix", name)
		}
	}
	if len(s.Policies) > 0 {
		names := append([]string(nil), s.Policies...)
		for _, n := range names {
			if policyByName[n] == nil {
				return nil, fmt.Errorf("tune: unknown policy %q (want accelflow, relief, cohort, cpucentric, or nonacc)", n)
			}
		}
		sp.Dims = append(sp.Dims, Dim{Name: "policy", Levels: names,
			apply: func(_ *config.Config, p *engine.Policy, idx int) error {
				*p = policyByName[names[idx]]()
				return nil
			}})
	}
	if len(s.QueueDepths) > 0 {
		levels := make([]string, len(s.QueueDepths))
		depths := append([]int(nil), s.QueueDepths...)
		for i, n := range depths {
			if n <= 0 {
				return nil, fmt.Errorf("tune: queue depth must be positive, got %d", n)
			}
			levels[i] = fmt.Sprintf("%d", n)
		}
		sp.Dims = append(sp.Dims, Dim{Name: "queue", Levels: levels,
			apply: func(c *config.Config, _ *engine.Policy, idx int) error {
				c.InputQueueEntries = depths[idx]
				c.OutputQueueEntries = depths[idx]
				return nil
			}})
	}
	if len(s.TCPTimeoutUs) > 0 {
		levels := make([]string, len(s.TCPTimeoutUs))
		us := append([]float64(nil), s.TCPTimeoutUs...)
		for i, v := range us {
			if v <= 0 {
				return nil, fmt.Errorf("tune: tcp timeout must be positive, got %vus", v)
			}
			levels[i] = fmt.Sprintf("%gus", v)
		}
		sp.Dims = append(sp.Dims, Dim{Name: "tcptimeout", Levels: levels,
			apply: func(c *config.Config, _ *engine.Policy, idx int) error {
				c.TCPTimeout = sim.FromMicros(us[idx])
				return nil
			}})
	}
	if len(sp.Dims) == 0 {
		return nil, fmt.Errorf("tune: search space has no dimensions")
	}
	return sp, nil
}

// DefaultSpace is the daemon's and CLI's default search space: three
// dimensions whose first levels are the paper's base design (two
// chiplets, 8 PEs per accelerator, the AccelFlow policy), so a default
// search starts at the baseline and explores outward.
func DefaultSpace() SpaceSpec {
	return SpaceSpec{
		Chiplets: []int{2, 1, 4},
		PEs:      []int{8, 4, 12},
		Policies: []string{"accelflow", "relief", "cohort"},
	}
}

// Start is the search's deterministic starting candidate: the first
// level of every dimension.
func (s *Space) Start() []int { return make([]int, len(s.Dims)) }

// Key renders a candidate's canonical identity: "name=label" pairs in
// dimension order. The key names the candidate's RNG stream (via
// sim.DeriveSeed) and its slot in the search's memo, so it must be a
// pure function of the candidate.
func (s *Space) Key(cand []int) string {
	var b strings.Builder
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(d.Name)
		b.WriteByte('=')
		b.WriteString(d.Levels[cand[i]])
	}
	return b.String()
}

// check reports whether cand is a point of the space: one in-range
// level index per dimension.
func (s *Space) check(cand []int) error {
	if len(cand) != len(s.Dims) {
		return fmt.Errorf("tune: candidate has %d indices, space has %d dims", len(cand), len(s.Dims))
	}
	for i, d := range s.Dims {
		if cand[i] < 0 || cand[i] >= len(d.Levels) {
			return fmt.Errorf("tune: %s index %d out of range [0,%d)", d.Name, cand[i], len(d.Levels))
		}
	}
	return nil
}

// maxLevels is the widest dimension's level count: the largest
// neighborhood radius that can still add candidates.
func (s *Space) maxLevels() int {
	n := 0
	for _, d := range s.Dims {
		n = max(n, len(d.Levels))
	}
	return n
}

// Levels maps a candidate to its dimension-name -> level-label view
// (for reports; Key is the canonical form).
func (s *Space) Levels(cand []int) map[string]string {
	out := make(map[string]string, len(s.Dims))
	for i, d := range s.Dims {
		out[d.Name] = d.Levels[cand[i]]
	}
	return out
}

// Materialize builds the candidate's simulated-server configuration
// and policy, applying each dimension to a fresh default config and
// validating the result. An error marks the candidate invalid (a
// searcher skips it); validity reuses config.Validate, so the searcher
// can never evaluate a configuration the simulator would reject.
func (s *Space) Materialize(cand []int) (*config.Config, engine.Policy, error) {
	if err := s.check(cand); err != nil {
		return nil, engine.Policy{}, err
	}
	cfg := config.Default()
	pol := engine.AccelFlow()
	for i, d := range s.Dims {
		if err := d.apply(cfg, &pol, cand[i]); err != nil {
			return nil, engine.Policy{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, engine.Policy{}, err
	}
	return cfg, pol, nil
}

// Neighbors returns the candidates within the given step radius of c:
// for each dimension in order, steps -1, +1, -2, +2, ... up to radius,
// one dimension changed at a time, deduplicated, in a deterministic
// order. Invalid candidates (Materialize errors) are filtered by the
// caller, which also decides whether c itself is included.
func (s *Space) Neighbors(c []int, radius int) [][]int {
	if radius < 1 {
		radius = 1
	}
	var out [][]int
	seen := map[string]bool{s.Key(c): true}
	for i := range s.Dims {
		for step := 1; step <= radius; step++ {
			for _, delta := range []int{-step, +step} {
				idx := c[i] + delta
				if idx < 0 || idx >= len(s.Dims[i].Levels) {
					continue
				}
				n := append([]int(nil), c...)
				n[i] = idx
				k := s.Key(n)
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// Signature is the space's canonical text form, folded into the search
// signature that guards SearchState resume against a different search.
func (s *Space) Signature() string {
	var b strings.Builder
	for _, d := range s.Dims {
		b.WriteString(d.Name)
		b.WriteByte(':')
		b.WriteString(strings.Join(d.Levels, "|"))
		b.WriteByte(';')
	}
	return b.String()
}
