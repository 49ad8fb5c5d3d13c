package topo

import (
	"fmt"
	"time"

	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/switching"
)

// MultipathParams parameterises the §VII virtualized-combiner network:
// two trusted virtual edges joined by k disjoint paths of untrusted
// switches (alternating "vendors" in the naming, to mirror Fig. 9's
// black/grey devices).
type MultipathParams struct {
	// Paths is k (2 for detection, 3 for prevention).
	Paths int
	// HopsPerPath is the number of untrusted switches on each path.
	HopsPerPath int
	// Link is used for all path links; EdgeLink for host↔edge.
	Link     netem.LinkConfig
	EdgeLink netem.LinkConfig
	// SwitchProcDelay and SwitchProcQueue configure the path switches.
	SwitchProcDelay time.Duration
	SwitchProcQueue int
	// Edge configures the two virtual edges (Paths is forced).
	Edge core.VirtualEdgeConfig
	// Compromise optionally returns a behavior for the switch at
	// (path, hop).
	Compromise func(path, hop int) switching.Behavior
}

// Multipath is an assembled §VII network.
type Multipath struct {
	// Left and Right are the trusted virtual edges.
	Left, Right *core.VirtualEdge
	// Paths holds the untrusted switches, [path][hop], hop 0 adjacent
	// to Left.
	Paths [][]*switching.Switch
}

// Close stops both edges' sweeps.
func (m *Multipath) Close() {
	m.Left.Close()
	m.Right.Close()
}

// Route installs MAC forwarding for dst toward the given side on every
// path switch and registers the release route on the far edge.
func (m *Multipath) Route(dst packet.MAC, side core.Side) {
	out := uint16(0) // toward Left
	if side == core.SideRight {
		out = 1 // toward Right
	}
	for _, path := range m.Paths {
		for _, sw := range path {
			sw.Table().Add(&openflow.FlowEntry{
				Priority: 100,
				Match:    openflow.MatchAll().WithDlDst(dst),
				Actions:  []openflow.Action{openflow.Output(out)},
			})
		}
	}
	if side == core.SideRight {
		m.Right.AddRoute(dst, core.VirtualHostPort)
	} else {
		m.Left.AddRoute(dst, core.VirtualHostPort)
	}
}

// BuildMultipath assembles the network. Path switches use port 0 toward
// Left and port 1 toward Right.
func BuildMultipath(net *netem.Network, p MultipathParams) *Multipath {
	if p.HopsPerPath < 1 {
		p.HopsPerPath = 1
	}
	leftCfg, rightCfg := p.Edge, p.Edge
	leftCfg.Name, rightCfg.Name = "vleft", "vright"
	leftCfg.Paths, rightCfg.Paths = p.Paths, p.Paths

	m := &Multipath{
		Left:  core.NewVirtualEdge(net.SchedulerFor(leftCfg.Name), leftCfg),
		Right: core.NewVirtualEdge(net.SchedulerFor(rightCfg.Name), rightCfg),
	}

	vendors := []string{"black", "grey"} // Fig. 9's two device vendors
	for i := 0; i < p.Paths; i++ {
		var path []*switching.Switch
		for h := 0; h < p.HopsPerPath; h++ {
			name := fmt.Sprintf("p%d-%s%d", i, vendors[(i+h)%len(vendors)], h)
			sw := switching.New(net.SchedulerFor(name), switching.Config{
				Name:       name,
				DatapathID: uint64(1000 + i*16 + h),
				ProcDelay:  p.SwitchProcDelay,
				ProcQueue:  p.SwitchProcQueue,
			})
			if p.Compromise != nil {
				if b := p.Compromise(i, h); b != nil {
					sw.SetBehavior(b)
				}
			}
			path = append(path, sw)
			if h > 0 {
				net.Connect(path[h-1], 1, sw, 0, p.Link)
			}
		}
		net.Connect(m.Left, m.Left.PathPort(i), path[0], 0, p.Link)
		net.Connect(path[len(path)-1], 1, m.Right, m.Right.PathPort(i), p.Link)
		m.Paths = append(m.Paths, path)
	}
	return m
}
