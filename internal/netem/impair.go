package netem

import (
	"fmt"
	"time"

	"netco/internal/packet"
)

// This file is the per-link impairment pipeline: the netem/pumba
// vocabulary (correlated loss, the Gilbert-Elliott loss model,
// duplication, bit corruption, jitter-driven reordering) ported onto the
// emulator's links.
//
// An ImpairSpec is an ordered list of stage specs attached to a
// LinkConfig. Each link direction instantiates its own runtime pipeline
// from the spec, and each stage instance owns a splitmix64 PRNG seeded
// from (run seed, link creation index, direction, stage index) — never
// from the process-global link id, which differs between runs in one
// process. Decisions therefore depend only on the run's inputs and the
// per-direction packet order, both of which the serial and partitioned
// engines reproduce exactly, so impaired runs stay bit-identical at
// every worker and partition count.
//
// Stage order is spec order. Loss stages consume packets outright;
// corruption replaces the packet with a mutated clone (the pooled
// original is abandoned to the GC rather than recycled, since the
// sender may still hold the pointer); duplication appends an
// independent clone; reordering adds a per-packet extra propagation
// delay, which converts into reordered deliveries because later sends
// can draw smaller extras. Extra delays are always >= 0, so a
// cross-partition link's deliveries never land before the propagation
// delay that bounds the parallel engine's lookahead.

// splitmix64 constants (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators").
const (
	splitmixGamma = 0x9e3779b97f4a7c15
	splitmixMulA  = 0xbf58476d1ce4e5b9
	splitmixMulB  = 0x94d049bb133111eb
)

// mix64 is the splitmix64 output finalizer: a bijective avalanche over
// 64 bits, used both to derive stage seeds and to advance stage streams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * splitmixMulA
	z = (z ^ (z >> 27)) * splitmixMulB
	return z ^ (z >> 31)
}

// impairRNG is a splitmix64 stream. Each stage instance owns one, so
// stages never share state across links, directions or stage positions.
type impairRNG struct{ state uint64 }

func (r *impairRNG) next() uint64 {
	r.state += splitmixGamma
	return mix64(r.state)
}

// float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *impairRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// stageSeed derives the PRNG seed of one stage instance from the run
// seed, the link's creation index within its Network (deterministic per
// run, unlike the process-global id), the direction and the stage
// position. Each input passes through the finalizer so adjacent indices
// land in unrelated streams.
func stageSeed(runSeed int64, linkIdx uint64, dir, stageIdx int) uint64 {
	h := mix64(uint64(runSeed) ^ splitmixGamma)
	h = mix64(h ^ linkIdx)
	h = mix64(h ^ uint64(dir)<<32)
	return mix64(h ^ uint64(stageIdx))
}

// ImpairSpec configures the impairment pipeline of a link: a shared,
// read-only recipe (safe to reference from any number of LinkConfigs)
// that each link direction expands into private runtime state at wire
// time.
type ImpairSpec struct {
	// Seed is the run seed the per-stage PRNG streams derive from.
	Seed int64
	// Stages apply in order to every transmission of the direction.
	Stages []StageSpec
}

// Validate rejects specs the pipeline cannot run.
func (s *ImpairSpec) Validate() error {
	if s == nil {
		return nil
	}
	for i, st := range s.Stages {
		if err := st.validate(); err != nil {
			return fmt.Errorf("netem: impairment stage %d: %w", i, err)
		}
	}
	return nil
}

// StageSpec configures one impairment stage. Implementations are the
// exported stage types in this file (Loss, LossGE, Duplicate, Corrupt,
// Reorder).
type StageSpec interface {
	validate() error
	// build instantiates per-direction runtime state with its own PRNG.
	build(seed uint64) impairStage
}

// impairDelivery is one pending delivery of the pipeline: the packet
// plus the extra propagation delay accumulated so far.
type impairDelivery struct {
	pkt   *packet.Packet
	extra time.Duration
}

// impairStage is one per-direction stage instance. apply transforms the
// pending delivery list (drop, mutate, append, delay) and accounts its
// decisions in the pipeline's counters.
type impairStage interface {
	apply(dl []impairDelivery, st *LinkStats) []impairDelivery
}

// impairPipeline is one direction's runtime pipeline. It is owned by
// the transmitting end's domain and reuses one scratch slice across
// packets, so steady-state application allocates nothing. It also holds
// what only an impaired direction has to keep, so clean links pay
// nothing for it.
type impairPipeline struct {
	stages  []impairStage
	scratch []impairDelivery
	// stats holds the direction's impairment counters (ImpairDrops,
	// Corrupted, Duplicated, Reordered); Link.Stats merges them.
	stats LinkStats
	// maxDeliverAt is the latest delivery instant scheduled so far, used
	// to detect reordering. Only impaired directions keep it: the hybrid
	// fluid delay can also shrink between sends, and clean links must not
	// report that as impairment.
	maxDeliverAt time.Duration
}

// build expands the spec for one direction of one link.
func (s *ImpairSpec) build(linkIdx uint64, dir int) *impairPipeline {
	if s == nil || len(s.Stages) == 0 {
		return nil
	}
	p := &impairPipeline{
		stages:  make([]impairStage, len(s.Stages)),
		scratch: make([]impairDelivery, 0, 2),
	}
	for i, st := range s.Stages {
		p.stages[i] = st.build(stageSeed(s.Seed, linkIdx, dir, i))
	}
	return p
}

// apply runs one transmission through the pipeline. The returned slice
// is valid until the next apply on the same direction, which is safe:
// Send consumes it before returning, and each direction is driven from
// one domain.
func (p *impairPipeline) apply(pkt *packet.Packet) []impairDelivery {
	dl := append(p.scratch[:0], impairDelivery{pkt: pkt})
	for _, stage := range p.stages {
		dl = stage.apply(dl, &p.stats)
		if len(dl) == 0 {
			break
		}
	}
	p.scratch = dl[:0]
	return dl
}

// Loss drops packets with probability P. Corr is the netem-style loss
// correlation: with Corr > 0 a loss raises the next packet's loss
// probability to P + Corr·(1−P) and a delivery lowers it to P·(1−Corr),
// which keeps the stationary loss rate exactly P while clustering the
// losses. Corr = 0 is i.i.d. loss.
type Loss struct {
	P    float64
	Corr float64
}

// isProb reports whether v is a probability. Every range check in this
// file is written as the condition a valid value meets, so NaN, which
// fails every comparison, is rejected instead of running as 0.
func isProb(v float64) bool { return v >= 0 && v <= 1 }

func (l Loss) validate() error {
	if !isProb(l.P) {
		return fmt.Errorf("loss probability %g out of [0,1]", l.P)
	}
	if !(l.Corr >= 0 && l.Corr < 1) {
		return fmt.Errorf("loss correlation %g out of [0,1)", l.Corr)
	}
	return nil
}

func (l Loss) build(seed uint64) impairStage {
	return &lossStage{rng: impairRNG{state: seed}, p: l.P, corr: l.Corr}
}

type lossStage struct {
	rng      impairRNG
	p, corr  float64
	prevLost bool
}

func (s *lossStage) apply(dl []impairDelivery, st *LinkStats) []impairDelivery {
	out := dl[:0]
	for _, d := range dl {
		p := s.p * (1 - s.corr)
		if s.prevLost {
			p = s.p + float64(s.corr*(1-s.p))
		}
		if s.rng.float64() < p {
			s.prevLost = true
			st.ImpairDrops++
			continue
		}
		s.prevLost = false
		out = append(out, d)
	}
	return out
}

// LossGE is the 2-state Gilbert-Elliott loss model (pumba's
// loss-gemodel): a good/bad Markov chain with per-state loss
// probabilities. PGoodBad is the good→bad transition probability per
// packet, PBadGood the bad→good one; LossBad and LossGood are the loss
// probabilities while in each state (classic Gilbert: LossBad = 1,
// LossGood = 0). The stationary loss rate is
//
//	πB·LossBad + (1−πB)·LossGood,  πB = PGoodBad/(PGoodBad+PBadGood),
//
// and with LossBad = 1 the mean loss-burst length is 1/PBadGood.
type LossGE struct {
	PGoodBad float64
	PBadGood float64
	LossBad  float64
	LossGood float64
}

func (l LossGE) validate() error {
	for _, v := range []float64{l.PGoodBad, l.PBadGood, l.LossBad, l.LossGood} {
		if !isProb(v) {
			return fmt.Errorf("gilbert-elliott parameter %g out of [0,1]", v)
		}
	}
	if l.PGoodBad > 0 && l.PBadGood == 0 {
		return fmt.Errorf("gilbert-elliott bad state is absorbing (p_bad_good = 0)")
	}
	return nil
}

func (l LossGE) build(seed uint64) impairStage {
	return &lossGEStage{rng: impairRNG{state: seed}, cfg: l}
}

type lossGEStage struct {
	rng impairRNG
	cfg LossGE
	bad bool
}

func (s *lossGEStage) apply(dl []impairDelivery, st *LinkStats) []impairDelivery {
	out := dl[:0]
	for _, d := range dl {
		// Transition first, then evaluate the new state's loss
		// probability: the chain's state always describes the packet
		// being decided.
		if s.bad {
			if s.rng.float64() < s.cfg.PBadGood {
				s.bad = false
			}
		} else if s.rng.float64() < s.cfg.PGoodBad {
			s.bad = true
		}
		p := s.cfg.LossGood
		if s.bad {
			p = s.cfg.LossBad
		}
		if p > 0 && s.rng.float64() < p {
			st.ImpairDrops++
			continue
		}
		out = append(out, d)
	}
	return out
}

// Duplicate delivers an extra copy of a packet with probability P. The
// copy is a deep clone, so the two deliveries never share mutable
// state, and it inherits the extra delay accumulated so far (stages
// after this one — reordering, typically — draw for each copy
// independently).
type Duplicate struct {
	P float64
}

func (d Duplicate) validate() error {
	if !isProb(d.P) {
		return fmt.Errorf("duplication probability %g out of [0,1]", d.P)
	}
	return nil
}

func (d Duplicate) build(seed uint64) impairStage {
	return &dupStage{rng: impairRNG{state: seed}, p: d.P}
}

type dupStage struct {
	rng impairRNG
	p   float64
}

func (s *dupStage) apply(dl []impairDelivery, st *LinkStats) []impairDelivery {
	n := len(dl)
	for i := 0; i < n; i++ {
		if s.rng.float64() < s.p {
			st.Duplicated++
			dl = append(dl, impairDelivery{pkt: dl[i].pkt.Clone(), extra: dl[i].extra})
		}
	}
	return dl
}

// Corrupt flips one random bit of a packet with probability P, modelling
// undetected line noise. The mutation targets the payload when there is
// one (the common case), falling back to the IP TOS byte and finally a
// source-MAC byte, so every frame shape has a corruptible bit. The
// corrupted frame replaces the original on the wire — the compare path
// sees genuinely different bytes — and carries Meta.Corrupted so
// receivers and tests can distinguish noise from adversarial
// modification. The replacement is a clone; the original (possibly
// pooled) packet is left to the GC, trading a little pool churn for the
// guarantee that a sender-retained pointer never observes the flip.
type Corrupt struct {
	P float64
}

func (c Corrupt) validate() error {
	if !isProb(c.P) {
		return fmt.Errorf("corruption probability %g out of [0,1]", c.P)
	}
	return nil
}

func (c Corrupt) build(seed uint64) impairStage {
	return &corruptStage{rng: impairRNG{state: seed}, p: c.P}
}

type corruptStage struct {
	rng impairRNG
	p   float64
}

func (s *corruptStage) apply(dl []impairDelivery, st *LinkStats) []impairDelivery {
	for i := range dl {
		if s.rng.float64() >= s.p {
			continue
		}
		st.Corrupted++
		q := dl[i].pkt.Clone()
		switch {
		case len(q.Payload) > 0:
			bit := s.rng.next() % uint64(len(q.Payload)*8)
			q.Payload[bit>>3] ^= 1 << (bit & 7)
		case q.IP != nil:
			q.IP.TOS ^= 1 << (s.rng.next() & 7)
		default:
			q.Eth.Src[5] ^= 1 << (s.rng.next() & 7)
		}
		q.Meta.Corrupted = true
		dl[i].pkt = q
	}
	return dl
}

// Reorder adds, with probability P, a uniform extra propagation delay in
// (0, Jitter] to a packet. A later packet drawing a smaller extra than
// its predecessor overtakes it in flight — the netem reorder model,
// expressed as delay so the serialisation order (and therefore the
// sender's queue accounting) is untouched. Deliveries that land before
// an already-scheduled one count in LinkStats.Reordered.
type Reorder struct {
	P      float64
	Jitter time.Duration
}

func (r Reorder) validate() error {
	if !isProb(r.P) {
		return fmt.Errorf("reorder probability %g out of [0,1]", r.P)
	}
	if r.Jitter <= 0 {
		return fmt.Errorf("reorder jitter %v must be positive", r.Jitter)
	}
	return nil
}

func (r Reorder) build(seed uint64) impairStage {
	return &reorderStage{rng: impairRNG{state: seed}, p: r.P, jitter: uint64(r.Jitter)}
}

type reorderStage struct {
	rng    impairRNG
	p      float64
	jitter uint64
}

func (s *reorderStage) apply(dl []impairDelivery, st *LinkStats) []impairDelivery {
	for i := range dl {
		if s.rng.float64() < s.p {
			dl[i].extra += time.Duration(1 + s.rng.next()%s.jitter)
		}
	}
	return dl
}
