package switching

import (
	"testing"
	"time"

	"netco/internal/openflow"
	"netco/internal/packet"
)

// TestCrashDropsPipelinedPackets: packets queued in the ingress pipeline
// when the crash hits never come out the other side.
func TestCrashDropsPipelinedPackets(t *testing.T) {
	sched, sw, hosts := testbed(t)
	sw.Table().Add(&openflow.FlowEntry{
		Priority: 10,
		Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
		Actions:  []openflow.Action{openflow.Output(1)},
	})
	// ProcDelay is 1 µs; ten back-to-back packets arrive at ~2 µs (1 µs
	// link delay) and the pipeline drains one per µs. Crash at 5 µs:
	// roughly the first three clear, the rest die in the queue.
	for i := 0; i < 10; i++ {
		hosts[0].ports.Send(0, testUDP(2))
	}
	sched.At(5*time.Microsecond, func() { sw.Crash() })
	sched.Run()
	if got := len(hosts[1].got); got >= 10 || got == 0 {
		t.Fatalf("h1 got %d packets, want a proper prefix of 10 (crash mid-queue)", got)
	}
	if sw.Lifecycle().Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", sw.Lifecycle().Crashes)
	}
	if sw.Table().Len() != 0 {
		t.Fatalf("table has %d entries after the crash, want 0", sw.Table().Len())
	}
}

// staticApp is a minimal controller installing one route on every
// handshake — the re-learn seam Restart exercises.
type staticApp struct{ connected int }

func (s *staticApp) SwitchConnected(conn *Conn, features openflow.FeaturesReply) {
	s.connected++
	conn.InstallFlow(openflow.FlowMod{
		Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
		Priority: 100,
		Actions:  []openflow.Action{openflow.Output(1)},
	})
}
func (s *staticApp) Handle(conn *Conn, msg openflow.Message, xid uint32) {}

// TestRestartReRunsHandshake: a restart re-runs the Hello/Features
// handshake so the controller reinstalls its rules without operator help.
func TestRestartReRunsHandshake(t *testing.T) {
	sched, sw, hosts := testbed(t)
	app := &staticApp{}
	sw.ConnectController(app, 100*time.Microsecond)
	sched.Run()
	if app.connected != 1 || sw.Table().Len() != 1 {
		t.Fatalf("initial connect: connected=%d len=%d, want 1/1", app.connected, sw.Table().Len())
	}

	sched.At(time.Millisecond, func() { sw.Crash() })
	sched.At(2*time.Millisecond, func() { sw.Restart() })
	sched.Run()
	if app.connected != 2 {
		t.Fatalf("connected = %d after restart, want 2 (handshake re-ran)", app.connected)
	}
	if sw.Table().Len() != 1 {
		t.Fatalf("table len = %d after re-handshake, want 1 (route reinstalled)", sw.Table().Len())
	}
	hosts[0].ports.Send(0, testUDP(2))
	sched.Run()
	if len(hosts[1].got) != 1 {
		t.Fatalf("h1 got %d packets after recovery, want 1", len(hosts[1].got))
	}
}
