package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/experiments"
	"accelflow/internal/services"
	"accelflow/internal/sim"
	"accelflow/internal/workload"
)

// serialSeeds is how many seeds sim-serial cycles through: seed,
// seed+1, ..., so every seed repeats and each repeat is checked.
const serialSeeds = 8

// fleetReplicas is the sim-parallel fleet's server count.
const fleetReplicas = 8

// sweepRequests is the per-cell request budget of the quick sweep; at
// seed 1 it reproduces internal/experiments/testdata/golden_quick.json.
const sweepRequests = 150

// simInputs are the read-only inputs every simulation of a sim
// workload shares, built once per setup.
type simInputs struct {
	cfg  *config.Config
	svcs []*services.Service
	pol  engine.Policy
}

func newSimInputs() simInputs {
	return simInputs{cfg: config.Default(), svcs: services.SocialNetwork(), pol: engine.AccelFlow()}
}

// serialSpec is the sim-serial run: the SocialNetwork mix at load 1.0
// under the AccelFlow policy, nothing attached. Mix builds fresh
// arrival processes, which carry phase state, so every run gets its own.
func (in simInputs) serialSpec(requests int, seed int64) *workload.RunSpec {
	return &workload.RunSpec{
		Config:  in.cfg,
		Policy:  in.pol,
		Sources: workload.Mix(in.svcs, 1.0, requests),
		Seed:    seed,
	}
}

// fleetSpec is the sim-parallel fleet: fleetReplicas servers behind the
// ingress balancer, at the default worker count.
func (in simInputs) fleetSpec(requests int, seed int64) *workload.FleetSpec {
	return &workload.FleetSpec{
		Config:   in.cfg,
		Policy:   in.pol,
		Sources:  workload.Mix(in.svcs, fleetReplicas, requests),
		Seed:     seed,
		Replicas: fleetReplicas,
	}
}

// runDigest is what a run must reproduce exactly when its seed repeats.
type runDigest struct {
	Completed, TimedOut, FellBack, AccelCalls, Events uint64
	P99, Mean                                         sim.Time
}

func digestOf(res *workload.RunResult, events uint64) runDigest {
	return runDigest{
		Completed: res.Completed, TimedOut: res.TimedOut, FellBack: res.FellBack,
		AccelCalls: res.AccelCount, Events: events,
		P99: res.All.P99(), Mean: res.All.Mean(),
	}
}

// digestChecker remembers the first digest seen per key and reports a
// later one that differs. It is used from one goroutine.
type digestChecker[K comparable, D comparable] map[K]D

func (dc digestChecker[K, D]) check(key K, d D) error {
	if first, ok := dc[key]; !ok {
		dc[key] = d
	} else if d != first {
		return fmt.Errorf("repeat of %v gave %+v, first run gave %+v", key, d, first)
	}
	return nil
}

type serialSession struct {
	in       simInputs
	seed     int64
	requests int
	seen     digestChecker[int64, runDigest]
}

func setupSerial(c *runConfig) (session, error) {
	s := &serialSession{in: newSimInputs(), seed: c.seed, requests: c.size.serialRequests, seen: digestChecker[int64, runDigest]{}}
	if err := s.op(opEnv{}, 0); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return s, nil
}

func (s *serialSession) clients() int    { return 1 }
func (s *serialSession) kind(int) string { return "run" }
func (s *serialSession) pid() string     { return "self" }
func (s *serialSession) verify() int     { return 0 }
func (s *serialSession) close() error    { return nil }

func (s *serialSession) layer(*recorder, window) (map[string]metric, error) { return nil, nil }

// op runs one sim-serial run; seeds cycle through seed..seed+7.
func (s *serialSession) op(env opEnv, i int) error {
	seed := s.seed + int64(i%serialSeeds)
	spec := s.in.serialSpec(s.requests, seed)
	id := env.rec.begin("workload.RunSpec.Run", 0, fmt.Sprintf("run-%d", i))
	res, err := spec.Run()
	env.rec.end(id)
	if err != nil {
		return err
	}
	if res.Completed != uint64(s.requests) {
		return fmt.Errorf("seed %d completed %d of %d requests", seed, res.Completed, s.requests)
	}
	return s.seen.check(seed, digestOf(res, res.Engine.K.Processed()))
}

type parallelSession struct {
	in   simInputs
	seed int64
	size sizes
	// golden holds the committed quick-sweep Values; it is set only at
	// seed 1, the seed they were recorded at.
	golden map[string]map[string]float64
	sweeps digestChecker[string, [sha256.Size]byte]
	fleets digestChecker[string, runDigest]

	// cells counts finished sweep cells after the warm-up.
	cells atomic.Int64
}

func setupParallel(c *runConfig) (session, error) {
	s := &parallelSession{
		in: newSimInputs(), seed: c.seed, size: c.size,
		sweeps: digestChecker[string, [sha256.Size]byte]{},
		fleets: digestChecker[string, runDigest]{},
	}
	if c.seed == 1 {
		g, err := loadGolden(c.root)
		if err != nil {
			return nil, err
		}
		s.golden = g
	}
	if err := s.op(opEnv{}, 0); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	s.cells.Store(0)
	return s, nil
}

func (s *parallelSession) clients() int    { return 1 }
func (s *parallelSession) kind(int) string { return "round" }
func (s *parallelSession) pid() string     { return "self" }
func (s *parallelSession) verify() int     { return 0 }
func (s *parallelSession) close() error    { return nil }

// layer reports the sweep cells finished per second spent in RunMany.
func (s *parallelSession) layer(rec *recorder, _ window) (map[string]metric, error) {
	var secs float64
	for _, d := range rec.durations()["experiments.RunMany"] {
		secs += d / 1000
	}
	n := s.cells.Load()
	return map[string]metric{"experiments.cells_per_s": {value: float64(n) / secs, n: int(n)}}, nil
}

// op runs one round: the quick sweep, then the fleet.
func (s *parallelSession) op(env opEnv, i int) error {
	runID := fmt.Sprintf("round-%d", i)
	root := env.rec.begin("round", 0, runID)
	defer env.rec.end(root)

	o := experiments.Options{
		Requests: sweepRequests, Seed: s.seed, Quick: true, Parallelism: 2,
		OnCell: func(experiments.CellEvent) { s.cells.Add(1) },
	}
	id := env.rec.begin("experiments.RunMany", root, runID)
	outs := experiments.RunMany(s.size.sweepIDs, o)
	env.rec.end(id)
	if err := s.checkSweep(outs); err != nil {
		return err
	}

	spec := s.in.fleetSpec(s.size.fleetRequests, s.seed)
	id = env.rec.begin("workload.FleetSpec.Run", root, runID)
	res, err := spec.Run()
	env.rec.end(id)
	if err != nil {
		return err
	}
	if res.Merged.Completed != uint64(s.size.fleetRequests) {
		return fmt.Errorf("fleet completed %d of %d requests", res.Merged.Completed, s.size.fleetRequests)
	}
	return s.fleets.check("fleet", digestOf(res.Merged, res.Events))
}

// checkSweep compares a sweep's Values with the golden file at seed 1
// and with the first sweep of this session otherwise.
func (s *parallelSession) checkSweep(outs []experiments.Outcome) error {
	vals := map[string]map[string]float64{}
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.ID, o.Err)
		}
		vals[o.ID] = o.Res.Values
	}
	if s.golden != nil {
		return compareGolden(vals, s.golden)
	}
	return s.sweeps.check("sweep", valuesDigest(vals))
}

// loadGolden reads the committed quick-sweep Values.
func loadGolden(root string) (map[string]map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", "golden_quick.json"))
	if err != nil {
		return nil, err
	}
	var g map[string]map[string]float64
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

// goldenTolerance is the relative tolerance of the golden comparison,
// the same the experiments package's golden test uses.
const goldenTolerance = 1e-9

// compareGolden checks that every experiment in got has exactly the
// golden file's keys, each within goldenTolerance.
func compareGolden(got, golden map[string]map[string]float64) error {
	for id, vals := range got {
		want, ok := golden[id]
		if !ok {
			return fmt.Errorf("%s: not in the golden file", id)
		}
		if len(vals) != len(want) {
			return fmt.Errorf("%s: %d values, golden file has %d", id, len(vals), len(want))
		}
		for k, w := range want {
			g, ok := vals[k]
			if !ok {
				return fmt.Errorf("%s: value %q missing", id, k)
			}
			if g != w && math.Abs(g-w) > goldenTolerance*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("%s: %q = %v, golden %v", id, k, g, w)
			}
		}
	}
	return nil
}

// valuesDigest hashes sweep Values exactly (bit patterns, keys in
// sorted order).
func valuesDigest(vals map[string]map[string]float64) [sha256.Size]byte {
	var keys []string
	for id, m := range vals {
		for k := range m {
			keys = append(keys, id+"\x00"+k)
		}
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		id, key, _ := strings.Cut(k, "\x00")
		h.Write([]byte(k))
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(vals[id][key])))
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}
