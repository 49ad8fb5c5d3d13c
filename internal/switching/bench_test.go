package switching

import (
	"fmt"
	"testing"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
)

// sinkNode discards deliveries so benchmark iterations retain nothing.
type sinkNode struct {
	name  string
	ports netem.Ports
	n     uint64
}

func (s *sinkNode) Name() string                         { return s.name }
func (s *sinkNode) Ports() *netem.Ports                  { return &s.ports }
func (s *sinkNode) Receive(port int, pkt *packet.Packet) { s.n++ }

// BenchmarkSwitchPipeline measures the full ingress pipeline — Receive,
// port accounting, flow-table lookup, action execution, transmit — for
// rule tables of fat-tree size, each packet stamped with a fresh IP ID as
// a sending host would. With the tuple-space classifier the cost must
// stay flat as rules grow.
func BenchmarkSwitchPipeline(b *testing.B) {
	for _, n := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("%drules", n), func(b *testing.B) {
			sched := sim.NewScheduler()
			net := netem.New(sched)
			sw := New(sched, Config{Name: "sw"})
			net.Add(sw)
			in := &sinkNode{name: "in"}
			out := &sinkNode{name: "out"}
			net.Add(in)
			net.Add(out)
			net.Connect(in, 0, sw, 0, netem.LinkConfig{})
			net.Connect(out, 0, sw, 1, netem.LinkConfig{})
			for i := 0; i < n; i++ {
				sw.Table().Add(&openflow.FlowEntry{
					Priority: 100,
					Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(uint32(i))),
					Actions:  []openflow.Action{openflow.Output(1)},
				})
			}
			pkts := make([]*packet.Packet, 16)
			for i := range pkts {
				pkts[i] = testUDP(uint32(i % n))
			}
			// Warm the pools.
			for _, p := range pkts {
				sw.Receive(0, p)
			}
			sched.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkts[i&15]
				p.IP.ID++
				sw.Receive(0, p)
				sched.Run()
			}
			b.StopTimer()
			if out.n == 0 {
				b.Fatal("nothing forwarded")
			}
		})
	}
}
