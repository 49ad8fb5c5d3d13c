package topo

import (
	"fmt"
	"strconv"
	"time"

	"netco/internal/netem"
	"netco/internal/switching"
)

// FatTreeParams parameterises a k-ary fat-tree (Al-Fares-style Clos), the
// "typical fat-tree topology where servers are organized in racks, which
// are in turn organized in pods, interconnected by core routers" of the
// §VI case study (Fig. 1, left).
type FatTreeParams struct {
	// Arity is k: k pods, each with k/2 edge and k/2 aggregation
	// switches; (k/2)² cores; k/2 hosts per edge switch. Must be even
	// and ≥ 2.
	Arity int
	// Link is used for every switch-to-switch link.
	Link netem.LinkConfig
	// SwitchProcDelay and SwitchProcQueue configure every switch.
	SwitchProcDelay time.Duration
	SwitchProcQueue int
}

// FatTree is an assembled fat-tree fabric. Hosts are not created; attach
// them to edge-switch host ports (0..k/2-1) with the network's Connect.
type FatTree struct {
	// Arity is the tree's k.
	Arity int
	// Cores holds the (k/2)² core switches; core c belongs to group
	// c / (k/2) (the group determines which aggregation switch of each
	// pod it connects to).
	Cores []*switching.Switch
	// Pods holds the k pods.
	Pods []*FatTreePod
}

// FatTreePod is one pod: k/2 aggregation and k/2 edge switches.
type FatTreePod struct {
	Agg  []*switching.Switch
	Edge []*switching.Switch
}

// Fat-tree port conventions.
//
// Edge switch:  ports 0..k/2-1 → hosts, ports k/2..k-1 → aggs (k/2+j → agg j).
// Agg switch:   ports 0..k/2-1 → edges (i → edge i), ports k/2..k-1 → cores.
// Core switch:  port p → pod p's agg of the core's group.

// EdgeHostPortOf returns the edge-switch port for host slot s.
func (ft *FatTree) EdgeHostPortOf(s int) int { return s }

// EdgeUpPortOf returns the edge-switch port toward aggregation switch j.
func (ft *FatTree) EdgeUpPortOf(j int) int { return ft.Arity/2 + j }

// AggDownPortOf returns the aggregation-switch port toward edge switch i.
func (ft *FatTree) AggDownPortOf(i int) int { return i }

// AggUpPortOf returns the aggregation-switch port toward the m-th core of
// its group.
func (ft *FatTree) AggUpPortOf(m int) int { return ft.Arity/2 + m }

// CorePodPortOf returns the core-switch port toward pod p.
func (ft *FatTree) CorePodPortOf(p int) int { return p }

// BuildFatTree assembles the fabric into net.
func BuildFatTree(net *netem.Network, p FatTreeParams) *FatTree {
	k := p.Arity
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree arity %d must be even and >= 2", k))
	}
	half := k / 2
	newSwitch := func(name string, dpid uint64) *switching.Switch {
		return switching.New(net.SchedulerFor(name), switching.Config{
			Name:       name,
			DatapathID: dpid,
			ProcDelay:  p.SwitchProcDelay,
			ProcQueue:  p.SwitchProcQueue,
		})
	}

	ft := &FatTree{Arity: k}
	dpid := uint64(1)
	for c := 0; c < half*half; c++ {
		ft.Cores = append(ft.Cores, newSwitch("core"+strconv.Itoa(c), dpid))
		dpid++
	}
	for pod := 0; pod < k; pod++ {
		fp := &FatTreePod{}
		prefix := "pod" + strconv.Itoa(pod)
		for j := 0; j < half; j++ {
			fp.Agg = append(fp.Agg, newSwitch(prefix+"-agg"+strconv.Itoa(j), dpid))
			dpid++
		}
		for i := 0; i < half; i++ {
			fp.Edge = append(fp.Edge, newSwitch(prefix+"-edge"+strconv.Itoa(i), dpid))
			dpid++
		}
		ft.Pods = append(ft.Pods, fp)
	}

	// Every fabric switch ends up with exactly k bound ports (hosts take
	// the edge layer's lower half later). Sizing the tables first spares
	// the wiring a reallocation per Bind.
	for _, core := range ft.Cores {
		core.Ports().Grow(k)
	}
	for _, fp := range ft.Pods {
		for j := 0; j < half; j++ {
			fp.Agg[j].Ports().Grow(k)
			fp.Edge[j].Ports().Grow(k)
		}
	}

	// Links are created in one canonical order — per pod, the intra-pod
	// edge↔agg bipartite (i-major), then the agg↔core uplinks (j-major) —
	// because link ids follow creation order and break same-instant ties.
	for pod, fp := range ft.Pods {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				net.Connect(fp.Edge[i], ft.EdgeUpPortOf(j), fp.Agg[j], ft.AggDownPortOf(i), p.Link)
			}
		}
		for j := 0; j < half; j++ {
			for m := 0; m < half; m++ {
				net.Connect(fp.Agg[j], ft.AggUpPortOf(m), ft.Cores[j*half+m], ft.CorePodPortOf(pod), p.Link)
			}
		}
	}
	return ft
}
