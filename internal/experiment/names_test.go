package experiment

import (
	"fmt"
	"testing"

	"netco/internal/netem"
	"netco/internal/sim"
	"netco/internal/topo"
)

// assertNamesUnique walks a network's links and fails if two distinct
// nodes carry one name. The network keeps no node registry, and a name is
// what a partition assigner places a node by, so this is the check that
// took the registry's place.
func assertNamesUnique(t *testing.T, what string, links []*netem.Link) {
	t.Helper()
	if len(links) == 0 {
		t.Fatalf("%s: no links", what)
	}
	owner := make(map[string]netem.Receiver)
	for _, l := range links {
		for end := 0; end < 2; end++ {
			r := l.Attached(end)
			if prev, seen := owner[r.Name()]; seen && prev != r {
				t.Fatalf("%s: two nodes are named %q", what, r.Name())
			}
			owner[r.Name()] = r
		}
	}
}

// TestNodeNamesUnique covers every builder of this package and the
// topologies it builds on: the testbed of every scenario, the k sweep's
// widest combiner, bare fat trees, the fluid fabric, the §VII virtual
// network (multipath) and the §VI case study in each of its kinds.
func TestNodeNamesUnique(t *testing.T) {
	p := DefaultParams().Quick()
	for _, s := range append([]Scenario{ScenInline3}, AllScenarios...) {
		tb := p.Build(s)
		assertNamesUnique(t, "testbed "+s.String(), tb.Net.Links())
		tb.Close()
	}
	tb := buildCentralK(p, 8)
	assertNamesUnique(t, "k sweep k=8", tb.Net.Links())
	tb.Close()

	for _, arity := range []int{4, 8} {
		nw := netem.New(sim.NewScheduler())
		topo.BuildFatTree(nw, topo.FatTreeParams{Arity: arity, Link: p.TrunkLink()})
		assertNamesUnique(t, fmt.Sprintf("fat tree k=%d", arity), nw.Links())

		nw = netem.New(sim.NewScheduler())
		buildFluidFabric(nw, p, arity)
		assertNamesUnique(t, fmt.Sprintf("fluid fabric k=%d", arity), nw.Links())
	}

	for _, paths := range []int{2, 3} {
		w, mp, _, _ := buildVirtualNet(p, paths, paths == 2, nil)
		assertNamesUnique(t, fmt.Sprintf("virtual network, %d paths", paths), w.Net.Links())
		mp.Close()
	}

	for _, kind := range []caseKind{caseBaseline, caseAttack, caseProtected} {
		nw, _ := buildCaseStudy(p, kind)
		assertNamesUnique(t, fmt.Sprintf("case study kind %d", kind), nw.Links())
	}
}
