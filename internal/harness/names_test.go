package harness

import (
	"testing"

	"netco/internal/netem"
)

// TestNodeNamesUnique walks the links of every harness fabric — each
// topology at both combiner sizes, serial and on four partitions — and
// fails if two distinct nodes carry one name. The network keeps no node
// registry, and a name is what the partition assigner places a node by.
func TestNodeNamesUnique(t *testing.T) {
	for _, topo := range []string{TopoTestbed, TopoFatTree, TopoChain} {
		for _, k := range []int{2, 3} {
			for _, parts := range []int{1, 4} {
				f := buildFabric(Scenario{Seed: 1, Topology: topo, K: k, TrunkMbps: 1000}, parts)
				owner := make(map[string]netem.Receiver)
				for _, l := range f.net.Links() {
					for end := 0; end < 2; end++ {
						r := l.Attached(end)
						if prev, seen := owner[r.Name()]; seen && prev != r {
							t.Fatalf("%s k=%d on %d partitions: two nodes are named %q", topo, k, parts, r.Name())
						}
						owner[r.Name()] = r
					}
				}
				if len(owner) == 0 {
					t.Fatalf("%s k=%d: no nodes", topo, k)
				}
				f.close()
			}
		}
	}
}
