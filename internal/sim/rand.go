package sim

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distributions the workload and payload
// models need. Every experiment derives independent, seeded streams so
// results are reproducible run to run.
//
// Stream independence: sibling streams obtained via Fork (or seeds
// obtained via DeriveSeed) are decorrelated by a splitmix64-style
// finalizer, so two streams never share a lagged subsequence the way
// naive seed arithmetic (seed+1, seed^salt) can. This is what lets the
// parallel sweep engine give every simulation cell its own stream and
// still produce bit-identical results at any worker count: a cell's
// stream depends only on (root seed, cell key), never on which
// goroutine ran it or in what order.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic stream for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// mix64 is the splitmix64 finalizer (Steele et al., "Fast splittable
// pseudorandom number generators"): a bijective avalanche over uint64,
// so distinct inputs always map to distinct, decorrelated outputs.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fork derives an independent stream, useful for giving each service or
// generator its own sequence without cross-coupling. The salt is passed
// through mix64 before combining so that small salts (including 0, for
// which plain multiplicative salting degenerates to no salting at all)
// still select well-separated streams.
func (g *RNG) Fork(salt int64) *RNG {
	return NewRNG(int64(mix64(uint64(g.r.Int63()) ^ mix64(uint64(salt)))))
}

// DeriveSeed maps (seed, key) to a child seed, deterministically and
// with avalanche: the same pair always yields the same child, and any
// change to either input changes the child everywhere. The sweep engine
// uses one key per simulation cell, which is what makes parallel sweeps
// replayable — results depend on the (seed, key) pair alone.
func DeriveSeed(seed int64, key string) int64 {
	// FNV-1a over the key, then a splitmix64 finalize of the pair.
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return int64(mix64(uint64(seed) ^ mix64(h)))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponentially distributed duration with the given
// mean; used for Poisson inter-arrival times. A draw past the largest
// Time saturates there: converting it would overflow.
func (g *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	f := math.Round(g.r.ExpFloat64() * float64(mean))
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	return Time(f)
}

// LogNormal returns a lognormally distributed value with the given
// median and sigma (of the underlying normal). Payload sizes in the
// paper are small with a long tail (Fig. 5), which lognormal captures.
func (g *RNG) LogNormal(median float64, sigma float64) float64 {
	return median * math.Exp(g.r.NormFloat64()*sigma)
}

// Pareto returns a bounded Pareto sample with the given minimum and
// shape alpha, capped at max. Used for bursty serverless arrivals.
func (g *RNG) Pareto(min float64, alpha float64, max float64) float64 {
	u := g.r.Float64()
	v := min / math.Pow(1-u, 1/alpha)
	if v > max {
		v = max
	}
	return v
}
