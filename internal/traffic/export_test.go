package traffic

import "testing"

// CertifyEverySettle exposes certifyEverySettle to the external tests,
// which drive whole fabrics through internal/experiment.
func CertifyEverySettle(t testing.TB) *int { return certifyEverySettle(t) }
