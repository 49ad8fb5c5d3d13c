package sim

import "math/rand"

// RNG is a deterministic random-number source for simulations. Every
// component that needs randomness (burst spacing, adversarial payloads, DoS
// inter-arrival times) receives an *RNG derived from the experiment seed, so
// results are reproducible run to run.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child RNG. Components should each receive
// their own fork so that adding a consumer does not perturb the stream seen
// by the others.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }
