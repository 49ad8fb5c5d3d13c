package switching

// This file is the switch's crash/restart lifecycle, the mechanism under
// the chaos layer's router actions (internal/chaos). A crash is a cold
// power loss: all volatile state — the flow table and the pipeline
// queue — is gone, and nothing is reported to the controller. A crash is
// the only way rules leave a switch. A restart brings the switch up
// empty and, when a controller is attached, re-runs the handshake so the
// control application re-installs its rules.

// LifecycleStats counts crash/restart transitions and the packets the
// switch dropped while down.
type LifecycleStats struct {
	Crashes     uint64
	Restarts    uint64
	RxWhileDown uint64
	TxWhileDown uint64
}

// Crash takes the switch down, losing all volatile state: its flow rules
// and every packet queued or in service in the pipeline. The attached
// Behavior survives: compromised firmware persists across reboots.
// Idempotent while down.
func (sw *Switch) Crash() {
	if sw.down {
		return
	}
	sw.down = true
	sw.life.Crashes++
	sw.table.Reset()
	sw.proc.Reset()
}

// Restart powers the switch back up with an empty flow table. If a
// controller is attached, the Hello/Features handshake re-runs, so the
// control application's SwitchConnected fires again after two RTTs and
// repopulates state exactly as it did on first connect (the routing app
// re-registers the switch; the compare app reinstalls its edge rules).
// Idempotent while up.
func (sw *Switch) Restart() {
	if !sw.down {
		return
	}
	sw.down = false
	sw.life.Restarts++
	if sw.ctrl != nil {
		sw.handshake(sw.ctrl.conn)
	}
}

// Lifecycle returns the crash/restart counters.
func (sw *Switch) Lifecycle() LifecycleStats { return sw.life }
