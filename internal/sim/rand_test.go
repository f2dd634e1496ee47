package sim

import (
	"math"
	"math/rand"
	"testing"
)

// corr computes the Pearson correlation of two equal-length sequences.
func corr(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var num, da, db float64
	for i := range a {
		num += (a[i] - ma) * (b[i] - mb)
		da += (a[i] - ma) * (a[i] - ma)
		db += (b[i] - mb) * (b[i] - mb)
	}
	return num / math.Sqrt(da*db)
}

func draws(g *RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Float64()
	}
	return out
}

// TestForkSaltMatters covers the historical bug where Fork(0) ignored
// the salt entirely (salt*constant == 0): sibling forks with distinct
// salts must produce distinct streams, including salt 0.
func TestForkSaltMatters(t *testing.T) {
	for _, salts := range [][2]int64{{0, 1}, {0, 2}, {1, 2}, {-1, 1}, {7, 8}} {
		a := draws(NewRNG(42).Fork(salts[0]), 32)
		b := draws(NewRNG(42).Fork(salts[1]), 32)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("Fork(%d) and Fork(%d) from the same parent produced identical streams", salts[0], salts[1])
		}
	}
}

// TestForkDeterministic: forking is a pure function of (parent state,
// salt) — same parent seed and salt give bit-identical streams.
func TestForkDeterministic(t *testing.T) {
	a := draws(NewRNG(9).Fork(3), 64)
	b := draws(NewRNG(9).Fork(3), 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed Fork diverged at draw %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestForkSiblingIndependence: sibling streams must be statistically
// uncorrelated. With n=4096 uniform draws, |r| for independent streams
// is ~1/sqrt(n) ~= 0.016; 0.08 gives a wide deterministic margin.
func TestForkSiblingIndependence(t *testing.T) {
	const n = 4096
	parent := NewRNG(1)
	sibs := []*RNG{parent.Fork(0), parent.Fork(1), parent.Fork(2), parent.Fork(100)}
	seqs := make([][]float64, len(sibs))
	for i, s := range sibs {
		seqs[i] = draws(s, n)
	}
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			if r := corr(seqs[i], seqs[j]); math.Abs(r) > 0.08 {
				t.Errorf("sibling streams %d,%d correlated: r=%.3f", i, j, r)
			}
		}
	}
}

// TestDeriveSeedDistinct: distinct (seed, key) pairs must yield
// distinct child seeds across realistic cell-key populations.
func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	keys := []string{"", "fig11/AccelFlow", "fig11/RELIEF", "fig12/RELIEF/5k",
		"fig12/RELIEF/15k", "a", "b", "ab", "ba"}
	for _, seed := range []int64{0, 1, 2, -1, 1 << 40} {
		for _, k := range keys {
			child := DeriveSeed(seed, k)
			if prev, dup := seen[child]; dup {
				t.Fatalf("collision: DeriveSeed(%d,%q) == %q", seed, k, prev)
			}
			seen[child] = k
		}
	}
}

// TestDeriveSeedStable pins the derivation so golden files cannot be
// silently invalidated by a mixer change.
func TestDeriveSeedStable(t *testing.T) {
	if a, b := DeriveSeed(1, "fig11/AccelFlow"), DeriveSeed(1, "fig11/AccelFlow"); a != b {
		t.Fatalf("DeriveSeed not deterministic: %d != %d", a, b)
	}
	if a, b := DeriveSeed(1, "x"), DeriveSeed(2, "x"); a == b {
		t.Fatal("DeriveSeed ignores the root seed")
	}
	if a, b := DeriveSeed(1, "x"), DeriveSeed(1, "y"); a == b {
		t.Fatal("DeriveSeed ignores the key")
	}
}

// TestDeriveSeedStreamsIndependent: streams seeded from sibling derived
// seeds are uncorrelated, mirroring the Fork test at the seed level.
func TestDeriveSeedStreamsIndependent(t *testing.T) {
	const n = 4096
	a := draws(NewRNG(DeriveSeed(1, "cell/a")), n)
	b := draws(NewRNG(DeriveSeed(1, "cell/b")), n)
	if r := corr(a, b); math.Abs(r) > 0.08 {
		t.Errorf("derived-seed streams correlated: r=%.3f", r)
	}
}

// TestStreamMatchesMathRand pins RNG to math/rand: for every seed the
// source must yield rand.NewSource(seed)'s stream, through direct draws
// (Int63, Float64) and through the rand.Rand distributions
// (ExpFloat64, NormFloat64, Intn) interleaved on one stream. The seeds
// cover math/rand's normalisation (0 becomes 89482311, negatives wrap,
// multiples of 2^31−1 reduce to 0) and the derived seeds the sweep
// engine uses.
func TestStreamMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, -2, 89482311, m, -m, 2 * m, -2 * m, 3 * m, m - 1, m + 1,
		1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64, math.MaxInt64 / m * m}
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, DeriveSeed(int64(i), "stream"))
	}
	const draws = 3000
	for _, seed := range seeds {
		g := NewRNG(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			if got, want := g.src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
			}
			if got, want := g.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, got, want)
			}
			if got, want := g.r.ExpFloat64(), ref.ExpFloat64(); got != want {
				t.Fatalf("seed %d draw %d: ExpFloat64 = %v, want %v", seed, i, got, want)
			}
			if got, want := g.r.NormFloat64(), ref.NormFloat64(); got != want {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", seed, i, got, want)
			}
			// Small bounds take Int31n's path, large ones Int63n's.
			n := 1 + i%1000
			if i%2 == 1 {
				n = 1<<40 + i
			}
			if got, want := g.Intn(n), ref.Intn(n); got != want {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, i, n, got, want)
			}
		}
	}
}

var rngSink *RNG

func BenchmarkNewRNG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rngSink = NewRNG(int64(i))
	}
}
