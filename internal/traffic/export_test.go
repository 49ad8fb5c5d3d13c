package traffic

import (
	"testing"

	"netco/internal/packet"
)

// CertifyEverySettle exposes certifyEverySettle to the external tests,
// which drive whole fabrics through internal/experiment.
func CertifyEverySettle(t testing.TB) *int { return certifyEverySettle(t) }

// FullResettleEveryNet makes every FluidNet built until the test ends
// the reference oracle (see fullResettle), so the external tests can run
// a whole fabric engine under it.
func FullResettleEveryNet(t testing.TB) {
	newNetHook = func(fn *FluidNet) { fullResettle(t, fn) }
	t.Cleanup(func() { newNetHook = nil })
}

// CaptureNets records every FluidNet built until the test ends, after
// the hook the test installed before it (FullResettleEveryNet) has run,
// so the external tests can inspect the nets a fabric engine builds.
func CaptureNets(t testing.TB) *[]*FluidNet {
	nets, prev := new([]*FluidNet), newNetHook
	newNetHook = func(fn *FluidNet) {
		if prev != nil {
			prev(fn)
		}
		*nets = append(*nets, fn)
	}
	t.Cleanup(func() { newNetHook = prev })
	return nets
}

// DirsHeld returns the most directions fn has held at once, and
// DirsReused how many of the directions it created were freed ids.
func DirsHeld(fn *FluidNet) int      { return int(fn.dirs.n) }
func DirsReused(fn *FluidNet) uint64 { return fn.reusedDirs }

// ARPCache returns a snapshot of the host's resolution cache.
func (h *Host) ARPCache() map[packet.IPAddr]packet.MAC {
	if h.arp == nil {
		return map[packet.IPAddr]packet.MAC{}
	}
	out := make(map[packet.IPAddr]packet.MAC, len(h.arp.cache))
	for ip, mac := range h.arp.cache {
		out[ip] = mac
	}
	return out
}
