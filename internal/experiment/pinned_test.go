package experiment

import (
	"fmt"
	"testing"
	"time"
)

// TestDigestsPinned compares absolute digests with literals. Every other
// digest check in the suite is relative (serial against partitioned, one
// settle-worker count against another, a run against its re-run), so a
// change that moves every run's event order the same way passes them
// all; this one fails. The runs use the sizes the churn, hybrid and
// scale tests already run. A change that moves a digest on purpose
// updates the literals here and says so in CHANGES.md.
func TestDigestsPinned(t *testing.T) {
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest moved\n got: %s\nwant: %s", name, got, want)
		}
	}

	churn := []string{
		1: "churn=173b37494b5321b3|arrivals=1600|departures=1052|samples=40|settles=41",
		2: "churn=15d224bad1a44a57|arrivals=1600|departures=1055|samples=40|settles=41",
		3: "churn=f83572e0ab8d6b48|arrivals=1600|departures=1051|samples=40|settles=41",
	}
	p, hp := quickChurn()
	for seed := int64(1); seed <= 3; seed++ {
		p.Seed = seed
		check(fmt.Sprintf("churn seed %d", seed), RunChurn(p, hp).Digest, churn[seed])
	}

	p, hp = quickHybrid()
	check("hybrid seed 1", RunHybrid(p, hp).Digest,
		"x0:s=24 u=24 b=35280 dup=0 re=0 cor=0;x1:s=24 u=24 b=35280 dup=0 re=0 cor=0;"+
			"x2:s=50 u=50 b=73500 dup=0 re=0 cor=0;x3:s=49 u=49 b=72030 dup=0 re=0 cor=0;"+
			"x4:s=25 u=25 b=36750 dup=0 re=0 cor=0;x5:s=25 u=25 b=36750 dup=0 re=0 cor=0;"+
			"cmp:a=0 i=0 q=0 blk=0;gw:197/197|fluid=a2074c4578747abd|settles=3|events=5954")

	sp := DefaultParams().Quick()
	sp.Partitions = 1
	check("scale arity 4 seed 1", RunScale(sp, 4, 60*time.Millisecond).Digest,
		"0:146/74752 u=146 b=74752 d=0 r=0;1:146/74752 u=146 b=74752 d=0 r=0;2:146/74752 u=146 b=74752 d=0 r=0;3:146/74752 u=146 b=74752 d=0 r=0;"+
			"4:146/74752 u=146 b=74752 d=0 r=0;5:146/74752 u=146 b=74752 d=0 r=0;6:146/74752 u=146 b=74752 d=0 r=0;7:146/74752 u=146 b=74752 d=0 r=0;"+
			"8:146/74752 u=146 b=74752 d=0 r=0;9:146/74752 u=146 b=74752 d=0 r=0;10:146/74752 u=146 b=74752 d=0 r=0;11:146/74752 u=146 b=74752 d=0 r=0;"+
			"12:146/74752 u=146 b=74752 d=0 r=0;13:146/74752 u=146 b=74752 d=0 r=0;14:146/74752 u=146 b=74752 d=0 r=0;15:146/74752 u=146 b=74752 d=0 r=0;"+
			"exec=28992 now=80000000")
}
