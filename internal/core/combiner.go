package core

import (
	"fmt"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/switching"
)

// CombinerMode selects the combiner variant under evaluation.
type CombinerMode int

// Combiner modes.
const (
	// CombinerCentral is the full design: hub, k routers, compare
	// (the paper's Central3/Central5 scenarios).
	CombinerCentral CombinerMode = iota + 1
	// CombinerDup splits packets over k routers but never combines them
	// (the paper's reduced Dup3/Dup5 designs).
	CombinerDup
	// CombinerSampling forwards the primary router's copies immediately
	// and verifies a sampled subset on a detect-only compare — the §IX
	// load-reduction design.
	CombinerSampling
	// CombinerInline places the compare inband as a middlebox behind
	// each edge instead of out-of-band: no detour links, and each
	// traffic direction gets its own compare CPU — the §IX "middlebox
	// or NFV function" architecture.
	CombinerInline
)

// EdgeHostPort is the edge port index reserved for the protected-side
// attachment (host or rest of network).
const EdgeHostPort = 0

// CombinerSpec describes how to build one robust combiner between two
// trusted edges.
type CombinerSpec struct {
	// NamePrefix namespaces the node names ("s1", "s2", "r0"... get the
	// prefix prepended).
	NamePrefix string
	// K is the number of parallel untrusted routers.
	K int
	// Mode selects Central (with compare) or Dup (without).
	Mode CombinerMode
	// Compare configures the compare node (Central mode only; Engine.K
	// is forced to K).
	Compare CompareNodeConfig
	// EdgeProcDelay and EdgeProcQueue configure the trusted edges.
	EdgeProcDelay time.Duration
	EdgeProcQueue int
	// RouterLink is the edge↔router link configuration; CompareLink the
	// edge↔compare links (Central mode).
	RouterLink  netem.LinkConfig
	CompareLink netem.LinkConfig
	// SampleRate is the 1-in-N divisor for CombinerSampling (default 16).
	SampleRate int
}

// Combiner is an assembled robust combiner: the realisation of Fig. 2/3.
type Combiner struct {
	// Left and Right are the trusted edges (s1 and s2 in Fig. 3).
	Left, Right *EdgeSwitch
	// Routers are the k untrusted routers, index-aligned with the
	// compare's port numbering.
	Routers []*switching.Switch
	// Compare is the compare node, nil in Dup and Inline modes.
	Compare *CompareNode
	// RouterLinks[i] holds router i's two trunk links — [RouterPortLeft]
	// toward Left, [RouterPortRight] toward Right — exposed so
	// fault-injection layers can flap them.
	RouterLinks [][2]*netem.Link
	// Middleboxes holds the two inline compares (Inline mode only),
	// indexed like the edges: 0 behind Left, 1 behind Right.
	Middleboxes [2]*Middlebox
	// K is the parallelism.
	K int

	// routes records the proactively installed rules, so a router
	// coming back from a cold restart can be repopulated — the combiner
	// is the routers' control plane (they have no controller).
	routes []routeRecord
}

// routeRecord is one InstallRoute call, replayed on router restart.
type routeRecord struct {
	mac  packet.MAC
	side Side
}

// RouterPortLeft and RouterPortRight are the port indices a combiner
// router uses toward each edge.
const (
	RouterPortLeft  = 0
	RouterPortRight = 1
)

// Build assembles a combiner inside net. newRouter constructs untrusted
// router i (letting the caller pick configuration and, for experiments,
// attach adversarial behaviors); Build registers and wires everything
// except the two host-side attachments, which the caller connects to
// EdgeHostPort via AttachHost or netem.Network.Connect.
func Build(net *netem.Network, spec CombinerSpec, newRouter func(i int) *switching.Switch) *Combiner {
	if spec.K < 1 || spec.K > MaxK {
		panic(fmt.Sprintf("core: combiner K=%d out of range [1,%d]", spec.K, MaxK))
	}
	edgeMode := EdgeModeCompare
	switch spec.Mode {
	case CombinerDup:
		edgeMode = EdgeModeDup
	case CombinerSampling:
		edgeMode = EdgeModeSample
	case CombinerInline:
		edgeMode = EdgeModeInline
	}

	c := &Combiner{K: spec.K}
	c.Left = NewEdgeSwitch(net.SchedulerFor(spec.NamePrefix+"s1"), EdgeConfig{
		Name:       spec.NamePrefix + "s1",
		EdgeID:     0,
		Mode:       edgeMode,
		ProcDelay:  spec.EdgeProcDelay,
		ProcQueue:  spec.EdgeProcQueue,
		SampleRate: spec.SampleRate,
	})
	c.Right = NewEdgeSwitch(net.SchedulerFor(spec.NamePrefix+"s2"), EdgeConfig{
		Name:       spec.NamePrefix + "s2",
		EdgeID:     1,
		Mode:       edgeMode,
		ProcDelay:  spec.EdgeProcDelay,
		ProcQueue:  spec.EdgeProcQueue,
		SampleRate: spec.SampleRate,
	})

	for i := 0; i < spec.K; i++ {
		r := newRouter(i)
		c.Routers = append(c.Routers, r)
		edgePort := 1 + i
		ll := net.Connect(c.Left, edgePort, r, RouterPortLeft, spec.RouterLink)
		lr := net.Connect(c.Right, edgePort, r, RouterPortRight, spec.RouterLink)
		c.RouterLinks = append(c.RouterLinks, [2]*netem.Link{ll, lr})
		c.Left.AddRouterPort(edgePort, i)
		c.Right.AddRouterPort(edgePort, i)
	}

	if spec.Mode == CombinerInline {
		for i, name := range []string{spec.NamePrefix + "mb1", spec.NamePrefix + "mb2"} {
			mb := NewMiddlebox(net.SchedulerFor(name), MiddleboxConfig{
				Name:        name,
				K:           spec.K,
				Engine:      spec.Compare.Engine,
				PerCopyCost: spec.Compare.PerCopyCost,
				QueueLimit:  spec.Compare.QueueLimit,
			})
			c.Middleboxes[i] = mb
		}
		net.Connect(c.Middleboxes[0], MiddleboxNetPort, c.Left, EdgeHostPort, spec.CompareLink)
		net.Connect(c.Middleboxes[1], MiddleboxNetPort, c.Right, EdgeHostPort, spec.CompareLink)
		return c
	}

	if spec.Mode != CombinerDup {
		cfg := spec.Compare
		if cfg.Name == "" {
			cfg.Name = spec.NamePrefix + "compare"
		}
		cfg.Engine.K = spec.K
		if spec.Mode == CombinerSampling {
			// The sampled compare only audits; it must not gate
			// forwarding.
			cfg.Engine.DetectOnly = true
		}
		c.Compare = NewCompareNode(net.SchedulerFor(cfg.Name), cfg)
		comparePort := 1 + spec.K
		net.Connect(c.Compare, 0, c.Left, comparePort, spec.CompareLink)
		net.Connect(c.Compare, 1, c.Right, comparePort, spec.CompareLink)
		c.Left.SetComparePort(comparePort)
		c.Right.SetComparePort(comparePort)
		c.Compare.RegisterEdge(0, c.Left)
		c.Compare.RegisterEdge(1, c.Right)
	}
	return c
}

// Side selects one edge of a combiner.
type Side int

// Combiner sides.
const (
	SideLeft Side = iota + 1
	SideRight
)

// AttachHost connects a host-like node (its port hostPort) to the given
// side's EdgeHostPort, registers the host MAC for ingress validation and
// forwarding, and installs MAC routes on every router so traffic for the
// host exits toward that side.
func (c *Combiner) AttachHost(net *netem.Network, side Side, host netem.Node, hostPort int, mac packet.MAC, link netem.LinkConfig) {
	edge, mb := c.Left, c.Middleboxes[0]
	if side == SideRight {
		edge, mb = c.Right, c.Middleboxes[1]
	}
	if mb != nil {
		// Inline mode: the host hangs off the middlebox, which is
		// already wired to the edge's host port.
		net.Connect(host, hostPort, mb, MiddleboxHostPort, link)
	} else {
		net.Connect(host, hostPort, edge, EdgeHostPort, link)
	}
	edge.AddHostPort(EdgeHostPort, mac)
	c.InstallRoute(mac, side)
}

// InstallRoute installs dst-MAC forwarding toward side on every router —
// the proactively installed rules of the prototype ("the only matched
// header field is the MAC destination address", §IV).
func (c *Combiner) InstallRoute(mac packet.MAC, side Side) {
	c.routes = append(c.routes, routeRecord{mac: mac, side: side})
	for _, r := range c.Routers {
		c.installRouteOn(r, mac, side)
	}
}

func (c *Combiner) installRouteOn(r *switching.Switch, mac packet.MAC, side Side) {
	out := uint16(RouterPortLeft)
	if side == SideRight {
		out = uint16(RouterPortRight)
	}
	r.Table().Add(&openflow.FlowEntry{
		Priority: 100,
		Match:    openflow.MatchAll().WithDlDst(mac),
		Actions:  []openflow.Action{openflow.Output(out)},
	})
}

// RestartRouter powers router i back up after a crash and replays every
// recorded proactive rule onto its empty table — the combiner acting as
// the routers' control plane, the way the prototype's operator pre-loads
// the r_i. A router with its own controller connection instead re-learns
// through the re-run handshake; the replay here is idempotent on top.
func (c *Combiner) RestartRouter(i int) {
	r := c.Routers[i]
	r.Restart()
	for _, rec := range c.routes {
		c.installRouteOn(r, rec.mac, rec.side)
	}
}

// Close releases the compare's periodic sweep (Dup combiners have nothing
// to release).
func (c *Combiner) Close() {
	if c.Compare != nil {
		c.Compare.Close()
	}
	for _, mb := range c.Middleboxes {
		if mb != nil {
			mb.Close()
		}
	}
}
