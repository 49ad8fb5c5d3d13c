package experiment

import (
	"fmt"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// fluidFabric is the fat-tree fabric shared by the hybrid, churn and
// scale engines: the switches, the hosts hanging off the edge layer
// (named pod<p>-h<local>, so topo.FatTreeAssign places each in its pod's
// domain), and the deterministic two-level routing that turns a
// (src, dst) host pair into a fluid path or proactive flow entries.
// Every engine builds it the same way so their link creation order — and
// therefore same-instant event tie-breaking — is identical for identical
// sizing.
type fluidFabric struct {
	arity, half, perPod int

	ft    *topo.FatTree
	hosts []*traffic.Host

	// hostHop[g] is host g's transmit direction on its access link,
	// filled once at build: pathFor runs per flow arrival, and reading a
	// 16-byte table entry there replaces a walk into the Host object (and,
	// reversed, into the destination's edge switch).
	hostHop []traffic.Hop

	// Build-time breakdown (wall clock): switches + trunk links, then
	// host builds + host links. Provenance only.
	topoMS, wireMS float64
}

// buildFluidFabric constructs the fat tree and its hosts, pod-major:
// link ids follow creation order, so every builder of this fabric (the
// bench has its own) must connect hosts in this order.
func buildFluidFabric(nw *netem.Network, p Params, arity int) *fluidFabric {
	half := arity / 2
	perPod := half * half
	topoStart := time.Now()
	ft := topo.BuildFatTree(nw, topo.FatTreeParams{
		Arity:           arity,
		Link:            p.TrunkLink(),
		SwitchProcDelay: p.SwitchProc,
		SwitchProcQueue: p.SwitchQueue,
	})
	topoMS := float64(time.Since(topoStart)) / float64(time.Millisecond)

	wireStart := time.Now()
	hosts := make([]*traffic.Host, arity*perPod)
	hostHop := make([]traffic.Hop, len(hosts))
	hcfg := hostCfgOf(p)
	for pod := 0; pod < arity; pod++ {
		for e := 0; e < half; e++ {
			for s := 0; s < half; s++ {
				g := pod*perPod + e*half + s
				name := fmt.Sprintf("pod%d-h%d", pod, e*half+s)
				h := traffic.NewHost(nw.SchedulerFor(name), name, packet.HostMAC(uint32(1+g)), packet.HostIP(uint32(1+g)), hcfg)
				nw.Add(h)
				nw.Connect(h, traffic.HostPort, ft.Pods[pod].Edge[e], ft.EdgeHostPortOf(s), p.HostLink())
				hosts[g], hostHop[g] = h, hopOf(h.Ports(), traffic.HostPort)
			}
		}
	}
	wireMS := float64(time.Since(wireStart)) / float64(time.Millisecond)

	return &fluidFabric{
		arity: arity, half: half, perPod: perPod,
		ft: ft, hosts: hosts, hostHop: hostHop,
		topoMS: topoMS, wireMS: wireMS,
	}
}

// switches counts the fabric switches (cores + per-pod agg and edge).
func (fb *fluidFabric) switches() int {
	return fb.half*fb.half + fb.arity*fb.arity
}

// hopOf resolves a transmitting port of a port table to a fluid Hop.
// Callers pass a concrete node's table (sw.Ports()), not a netem.Node,
// so the per-hop lookup is two inlined slice reads.
func hopOf(ps *netem.Ports, port int) traffic.Hop {
	l, end := ps.Ref(port)
	return traffic.Hop{Link: l, End: end}
}

// pathFor appends the directed fluid path srcG→dstG to hops (a reused
// scratch buffer — NewFlow copies what it needs) along the
// deterministic fat-tree routing (agg by destination slot, core by
// destination pod — the same choice installFatTreeRoutes materialises
// as flow entries).
func (fb *fluidFabric) pathFor(srcG, dstG int, hops []traffic.Hop) []traffic.Hop {
	half, perPod, ft := fb.half, fb.perPod, fb.ft
	sp, sl := srcG/perPod, srcG%perPod
	dp, dl := dstG/perPod, dstG%perPod
	se := sl / half
	de, ds := dl/half, dl%half
	jd, md := ds%half, dp%half

	// The path ends on the destination's access link, edge to host: the
	// reverse of that host's own transmit direction.
	last := fb.hostHop[dstG]
	last.End ^= 1

	hops = append(hops, fb.hostHop[srcG])
	if sp == dp && se == de {
		return append(hops, last)
	}
	hops = append(hops, hopOf(ft.Pods[sp].Edge[se].Ports(), ft.EdgeUpPortOf(jd)))
	if sp != dp {
		cw := ft.Cores[jd*half+md]
		hops = append(hops,
			hopOf(ft.Pods[sp].Agg[jd].Ports(), ft.AggUpPortOf(md)),
			hopOf(cw.Ports(), ft.CorePodPortOf(dp)))
	}
	return append(hops, hopOf(ft.Pods[dp].Agg[jd].Ports(), ft.AggDownPortOf(de)), last)
}

// installRoutes materialises the deterministic two-level routing as
// proactive dst-MAC flow entries, matched like the combiner's routers:
// the dst's edge delivers to the host port; any other edge climbs to agg
// s%(k/2); aggs in the dst pod descend, aggs elsewhere climb to core
// member pod%(k/2); cores descend to the dst pod. Only needed when the
// fabric carries real packets.
func (fb *fluidFabric) installRoutes() {
	ft, hosts := fb.ft, fb.hosts
	arity, half, perPod := fb.arity, fb.half, fb.perPod
	route := func(mac packet.MAC, out int) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority: 100,
			Match:    openflow.MatchAll().WithDlDst(mac),
			Actions:  []openflow.Action{openflow.Output(uint16(out))},
		}
	}
	for pod := 0; pod < arity; pod++ {
		for e := 0; e < half; e++ {
			for s := 0; s < half; s++ {
				mac := hosts[pod*perPod+e*half+s].MAC()
				jd, md := s%half, pod%half
				for p2 := 0; p2 < arity; p2++ {
					for e2 := 0; e2 < half; e2++ {
						if p2 == pod && e2 == e {
							ft.Pods[p2].Edge[e2].Table().Add(route(mac, ft.EdgeHostPortOf(s)))
						} else {
							ft.Pods[p2].Edge[e2].Table().Add(route(mac, ft.EdgeUpPortOf(jd)))
						}
					}
					for j := 0; j < half; j++ {
						if p2 == pod {
							ft.Pods[p2].Agg[j].Table().Add(route(mac, ft.AggDownPortOf(e)))
						} else {
							ft.Pods[p2].Agg[j].Table().Add(route(mac, ft.AggUpPortOf(md)))
						}
					}
				}
				for _, c := range ft.Cores {
					c.Table().Add(route(mac, ft.CorePodPortOf(pod)))
				}
			}
		}
	}
}
