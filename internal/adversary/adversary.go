// Package adversary implements the attacker model of §II: compromised
// routers that ignore their installed flow rules and instead reroute,
// mirror, modify, drop or mass-generate packets. Behaviors attach to an
// ordinary switching.Switch and intercept its forwarding decisions, so a
// "malicious router" is exactly an honest router plus a behavior — the
// paper's threat model, where hardware is subverted but indistinguishable
// from the outside.
//
// Behaviors compose with Chain, and each records what it did so tests and
// the §VI case study can assert on attack activity.
package adversary

import (
	"bytes"
	"time"

	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
)

// Reroute forwards matching packets to the wrong port (§II attack 1),
// e.g. to bypass a firewall or break a logical isolation domain.
type Reroute struct {
	// Match selects victim packets (zero value selects nothing; use
	// MatchAll() for everything).
	Match openflow.Match
	// ToPort is where victims are misdirected.
	ToPort uint16

	// Rerouted counts victims.
	Rerouted uint64
}

var _ switching.Behavior = (*Reroute)(nil)

// Forward implements switching.Behavior.
func (r *Reroute) Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action) {
	if !r.Match.Matches(uint16(inPort), pkt) {
		return pkt, honest
	}
	r.Rerouted++
	return pkt, []openflow.Action{openflow.Output(r.ToPort)}
}

// Mirror duplicates matching packets to an extra port while still
// forwarding the original (§II attack 2) — the exfiltration primitive of
// the §VI case study.
type Mirror struct {
	// Match selects victim packets.
	Match openflow.Match
	// ToPort receives the extra copy.
	ToPort uint16

	// Mirrored counts extra copies produced.
	Mirrored uint64
}

var _ switching.Behavior = (*Mirror)(nil)

// Forward implements switching.Behavior.
func (m *Mirror) Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action) {
	if !m.Match.Matches(uint16(inPort), pkt) {
		return pkt, honest
	}
	m.Mirrored++
	// Mirror first so later honest header rewrites cannot leak into the
	// copy ordering semantics.
	actions := make([]openflow.Action, 0, len(honest)+1)
	actions = append(actions, openflow.Output(m.ToPort))
	actions = append(actions, honest...)
	return pkt, actions
}

// Drop silently discards matching packets (§II attacks 3/4: deletion as a
// denial-of-service vector).
type Drop struct {
	// Match selects victim packets.
	Match openflow.Match
	// Probability drops only this fraction (1.0 when zero and Always is
	// set via Match); use Rng for reproducibility when < 1.
	Probability float64
	// Rng drives probabilistic dropping; nil means drop always.
	Rng *sim.RNG

	// Dropped counts victims.
	Dropped uint64
}

var _ switching.Behavior = (*Drop)(nil)

// Forward implements switching.Behavior.
func (d *Drop) Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action) {
	if !d.Match.Matches(uint16(inPort), pkt) {
		return pkt, honest
	}
	if d.Rng != nil && d.Probability > 0 && d.Rng.Float64() >= d.Probability {
		return pkt, honest
	}
	d.Dropped++
	return pkt, nil
}

// Modify rewrites header fields of matching packets before forwarding
// them honestly (§II attack 3), e.g. "changing the VLAN field to break
// isolation domains".
type Modify struct {
	// Match selects victim packets.
	Match openflow.Match
	// Rewrite is the header actions applied to victims.
	Rewrite []openflow.Action

	// Modified counts victims.
	Modified uint64
}

var _ switching.Behavior = (*Modify)(nil)

// Forward implements switching.Behavior.
func (m *Modify) Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action) {
	if !m.Match.Matches(uint16(inPort), pkt) {
		return pkt, honest
	}
	out := pkt.Clone()
	for _, a := range m.Rewrite {
		openflow.ApplyHeader(a, out)
	}
	if bytes.Equal(out.Marshal(), pkt.Marshal()) {
		// The rewrite did not touch this packet — e.g. a transport-port
		// rewrite on ICMP, which has no ports. An unaltered packet is not
		// a victim, so it must not count as attack activity.
		return pkt, honest
	}
	m.Modified++
	return out, honest
}

// Replay retransmits every matching packet n extra times — the
// duplication flavour of §II attack 2/4 that the compare's DoS case (§IV
// case 2) is designed to catch.
type Replay struct {
	// Match selects victim packets.
	Match openflow.Match
	// Extra is how many additional copies to emit.
	Extra int

	// Replayed counts extra copies.
	Replayed uint64
}

var _ switching.Behavior = (*Replay)(nil)

// Forward implements switching.Behavior.
func (r *Replay) Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action) {
	if !r.Match.Matches(uint16(inPort), pkt) || len(honest) == 0 {
		return pkt, honest
	}
	actions := make([]openflow.Action, 0, len(honest)*(r.Extra+1))
	for i := 0; i <= r.Extra; i++ {
		actions = append(actions, honest...)
	}
	r.Replayed += uint64(r.Extra)
	return pkt, actions
}

// Flood mass-generates unsolicited packets out of a port (§II attack 4:
// "generate a very large number of packets in order to overload the
// network"). It starts when attached and stops after Duration (or with
// Stop).
type Flood struct {
	// OutPort is where generated packets are injected.
	OutPort int
	// Rate is packets per second.
	Rate float64
	// Template is cloned for every generated packet; its payload gets a
	// varying suffix when Vary is set so each packet is distinct.
	Template *packet.Packet
	// Vary makes every generated packet unique (distinct frames stress
	// the compare cache; identical frames trigger its DoS case).
	Vary bool
	// Duration bounds the flood (zero = until Stop).
	Duration time.Duration

	// Injected counts generated packets.
	Injected uint64

	sw      *switching.Switch
	timer   sim.Timer
	stopped bool
	seq     uint64
}

var _ switching.Behavior = (*Flood)(nil)

// Attach starts the generator on the switch SetBehavior installs it on.
func (f *Flood) Attach(sw *switching.Switch) {
	f.sw = sw
	if f.Rate <= 0 || f.Template == nil {
		return
	}
	interval := time.Duration(float64(time.Second) / f.Rate)
	start := sw.Scheduler().Now()
	var tick func()
	tick = func() {
		if f.stopped {
			return
		}
		if f.Duration > 0 && sw.Scheduler().Now()-start >= f.Duration {
			return
		}
		pkt := f.Template.Clone()
		if f.Vary {
			f.seq++
			pkt.Payload = append(pkt.Payload, byte(f.seq), byte(f.seq>>8), byte(f.seq>>16), byte(f.seq>>24))
		}
		f.Injected++
		sw.InjectLocal(f.OutPort, pkt)
		f.timer = sw.Scheduler().After(interval, tick)
	}
	f.timer = sw.Scheduler().After(interval, tick)
}

// Stop halts the generator.
func (f *Flood) Stop() {
	f.stopped = true
	f.timer.Stop()
}

// Forward implements switching.Behavior: Flood leaves transit traffic
// untouched.
func (f *Flood) Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action) {
	return pkt, honest
}

// Activity reports how many packets a behavior actually interfered with:
// the sum of its attack counters, recursing through Chain. A compromised
// router whose behavior never matched anything (Activity == 0) is
// indistinguishable from an honest one, which is exactly the distinction
// the harness's detection oracle needs.
func Activity(b switching.Behavior) uint64 {
	switch v := b.(type) {
	case *Reroute:
		return v.Rerouted
	case *Mirror:
		return v.Mirrored
	case *Drop:
		return v.Dropped
	case *Modify:
		return v.Modified
	case *Replay:
		return v.Replayed
	case *Flood:
		return v.Injected
	case Chain:
		var total uint64
		for _, link := range v {
			total += Activity(link)
		}
		return total
	default:
		return 0
	}
}

// Chain composes behaviors: each link sees the packet/actions produced by
// the previous one. A nil action list short-circuits (the packet is
// dropped).
type Chain []switching.Behavior

var _ switching.Behavior = (Chain)(nil)

// Attach attaches the members that have an Attach method, in order.
func (c Chain) Attach(sw *switching.Switch) {
	for _, b := range c {
		if a, ok := b.(interface{ Attach(*switching.Switch) }); ok {
			a.Attach(sw)
		}
	}
}

// Forward implements switching.Behavior.
func (c Chain) Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action) {
	out, actions := pkt, honest
	for _, b := range c {
		out, actions = b.Forward(inPort, out, actions)
		if actions == nil {
			return out, nil
		}
	}
	return out, actions
}
