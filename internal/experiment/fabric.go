package experiment

import (
	"strconv"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// fluidFabric is the packet fat tree of the scale engine and the hybrid
// engine's PacketFabric baseline: the switches, the hosts hanging off the
// edge layer (named pod<p>-h<local>, so topo.FatTreeAssign places each in
// its pod's domain), and the deterministic two-level routing as proactive
// flow entries. Every engine builds it the same way so their link creation
// order — and therefore same-instant event tie-breaking — is identical
// for identical sizing.
type fluidFabric struct {
	arity, half, perPod int

	ft    *topo.FatTree
	hosts []*traffic.Host

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
	hcfg := hostCfgOf(p)
	for pod := 0; pod < arity; pod++ {
		prefix := "pod" + strconv.Itoa(pod) + "-h"
		for e := 0; e < half; e++ {
			for s := 0; s < half; s++ {
				g := pod*perPod + e*half + s
				name := prefix + strconv.Itoa(e*half+s)
				hosts[g] = traffic.NewHost(nw.SchedulerFor(name), name, packet.HostMAC(uint32(1+g)), packet.HostIP(uint32(1+g)), hcfg)
				nw.Connect(hosts[g], traffic.HostPort, ft.Pods[pod].Edge[e], ft.EdgeHostPortOf(s), p.HostLink())
			}
		}
	}
	wireMS := float64(time.Since(wireStart)) / float64(time.Millisecond)

	return &fluidFabric{
		arity: arity, half: half, perPod: perPod,
		ft: ft, hosts: hosts,
		topoMS: topoMS, wireMS: wireMS,
	}
}

// The tiers of a fatTreeDirs table, in a cross-pod path's hop order,
// k³/4 entries each: (pod, switch, port) or (core, pod) in mixed radix.
const (
	tierHostUp = iota
	tierEdgeUp
	tierAggUp
	tierCoreDown
	tierAggDown
	tierHostDown
	fatTreeTiers
)

// fatTreeDirs routes fluid flows as installRoutes routes packets, to
// FluidNet direction ids: tab holds id+1. A direction is a bare capacity
// whose entry owns it (NewDir): 0 until first touch, and 0 again once the
// last flow crossing it retires and the FluidNet recycles its id.
type fatTreeDirs struct {
	fn                         *traffic.FluidNet
	arity, half, perPod, hosts int
	caps                       [fatTreeTiers]float64
	tab                        []int32
}

// newFatTreeDirs sizes a link-less direction table for an arity-k tree.
func newFatTreeDirs(fn *traffic.FluidNet, p Params, arity int) fatTreeDirs {
	half := arity / 2
	h, tr := p.HostLink().Bandwidth, p.TrunkLink().Bandwidth
	return fatTreeDirs{
		fn: fn, arity: arity, half: half, perPod: half * half, hosts: arity * half * half,
		caps: [fatTreeTiers]float64{h, tr, tr, tr, tr, h},
		tab:  make([]int32, fatTreeTiers*arity*half*half),
	}
}

// path appends the direction ids of the route srcG→dstG to ids.
func (t *fatTreeDirs) path(srcG, dstG int, ids []int32) []int32 {
	half, perPod := t.half, t.perPod
	sp, se := srcG/perPod, srcG%perPod/half
	dp, dl := dstG/perPod, dstG%perPod
	de, jd, md := dl/half, dl%half, dp%half

	ids = append(ids, t.dir(tierHostUp, srcG))
	if sp != dp || se != de {
		ids = append(ids, t.dir(tierEdgeUp, (sp*half+se)*half+jd))
		if sp != dp {
			ids = append(ids, t.dir(tierAggUp, (sp*half+jd)*half+md), t.dir(tierCoreDown, (jd*half+md)*t.arity+dp))
		}
		ids = append(ids, t.dir(tierAggDown, (dp*half+jd)*half+de))
	}
	return append(ids, t.dir(tierHostDown, dstG))
}

// dir returns the id of entry i of a tier, creating it while the entry is 0.
func (t *fatTreeDirs) dir(tier, i int) int32 {
	at := tier*t.hosts + i
	if t.tab[at] == 0 {
		t.fn.NewDir(t.caps[tier], &t.tab[at])
	}
	return t.tab[at] - 1
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
