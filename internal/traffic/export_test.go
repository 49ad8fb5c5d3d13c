package traffic

import "testing"

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
