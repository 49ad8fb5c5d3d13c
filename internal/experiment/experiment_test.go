package experiment

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"netco/internal/core"
	"netco/internal/topo"
)

func TestScenarioNames(t *testing.T) {
	want := map[Scenario]string{
		ScenLinespeed: "Linespeed",
		ScenCentral3:  "Central3",
		ScenCentral5:  "Central5",
		ScenPOX3:      "POX3",
		ScenDup3:      "Dup3",
		ScenDup5:      "Dup5",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("String(%d) = %q, want %q", s, s.String(), name)
		}
	}
	if Scenario(0).String() != "Unknown" {
		t.Error("zero scenario should be Unknown")
	}
}

func TestScenarioK(t *testing.T) {
	if ScenLinespeed.K() != 1 || ScenCentral3.K() != 3 || ScenCentral5.K() != 5 ||
		ScenDup3.K() != 3 || ScenDup5.K() != 5 || ScenPOX3.K() != 3 {
		t.Fatal("scenario K mapping wrong")
	}
}

func TestCaseStudyMatchesPaper(t *testing.T) {
	r := RunCaseStudy(DefaultParams())

	// Baseline: "we witness 10 perfect cycles" and no stray packets.
	b := r.Baseline
	if b.RequestsSent != 10 || b.RequestsAtFirewall != 10 || b.ResponsesAtVM != 10 {
		t.Fatalf("baseline = %+v, want 10/10/10", b)
	}
	if b.StrayAtCore != 0 {
		t.Fatalf("baseline saw %d stray packets at the core", b.StrayAtCore)
	}
	if b.PathRuleRequests != 10 {
		t.Fatalf("baseline flow counter = %d, want 10", b.PathRuleRequests)
	}

	// Attack: "After 10 requests sent, we witness 20 requests arriving
	// at fw1 and 0 responses arriving at vm1."
	a := r.Attack
	if a.RequestsAtFirewall != 20 {
		t.Fatalf("attack: %d requests at fw1, want 20", a.RequestsAtFirewall)
	}
	if a.ResponsesAtVM != 0 {
		t.Fatalf("attack: %d responses at vm1, want 0", a.ResponsesAtVM)
	}
	if a.StrayAtCore == 0 {
		t.Fatal("attack: mirrored packets never crossed the core")
	}

	// Protected: "all 10 request response cycles completed successfully"
	// and the mirrored packets died inside the compare.
	pr := r.Protected
	if pr.RequestsAtFirewall != 10 || pr.ResponsesAtVM != 10 {
		t.Fatalf("protected = %+v, want 10 requests / 10 responses", pr)
	}
	if pr.StrayAtCore != 0 {
		t.Fatalf("protected saw %d stray packets", pr.StrayAtCore)
	}
	if pr.CompareSuppressed != 10 {
		t.Fatalf("compare suppressed %d, want the 10 mirrored requests", pr.CompareSuppressed)
	}
	if pr.CompareReleased != 20 {
		t.Fatalf("compare released %d, want 20 (10 requests + 10 responses)", pr.CompareReleased)
	}
	if pr.DuplicateResponses != 0 {
		t.Fatalf("protected leaked %d duplicate responses", pr.DuplicateResponses)
	}
}

// TestCaseStudyRow pins the casestudy row's key set and the §VI numbers
// it flattens: 10/10/10 benign, 20 requests and 0 responses under
// attack, 10/10 inside the combiner with the mirrored copies suppressed.
func TestCaseStudyRow(t *testing.T) {
	m := rowMetrics(t, KindCaseStudy, DefaultParams(),
		"attack_first_hop_count attack_requests_at_fw attack_responses_at_vm attack_stray_at_core "+
			"baseline_first_hop_count baseline_requests_at_fw baseline_responses_at_vm baseline_stray_at_core "+
			"protected_first_hop_count protected_released protected_requests_at_fw protected_responses_at_vm "+
			"protected_stray_at_core protected_suppressed")
	for key, want := range map[string]float64{
		"baseline_requests_at_fw": 10, "baseline_responses_at_vm": 10, "baseline_stray_at_core": 0, "baseline_first_hop_count": 10,
		"attack_requests_at_fw": 20, "attack_responses_at_vm": 0, "attack_stray_at_core": 10, "attack_first_hop_count": 10,
		"protected_requests_at_fw": 10, "protected_responses_at_vm": 10, "protected_stray_at_core": 0, "protected_first_hop_count": 10,
		"protected_released": 20, "protected_suppressed": 10,
	} {
		if m[key] != want {
			t.Errorf("%s = %v, want %v", key, m[key], want)
		}
	}
	if got := KindCaseStudy.Row().Paper[ScenCentral3]; got != 20 {
		t.Errorf("paper column for attack_requests_at_fw = %v, want 20", got)
	}
}

func TestRunVirtual(t *testing.T) {
	p := DefaultParams()
	p.UDPDuration = 300 * time.Millisecond
	m := rowMetrics(t, KindVirtual, p, "bare_mbps combined_mbps detect_alarms detect_delivered detect_sent "+
		"first_detection_ms prevent_delivered prevent_sent prevent_suppressed")

	if m["prevent_sent"] == 0 || m["prevent_delivered"] != m["prevent_sent"] {
		t.Fatalf("prevention delivered %v of %v", m["prevent_delivered"], m["prevent_sent"])
	}
	if m["prevent_suppressed"] == 0 {
		t.Fatal("prevention suppressed nothing despite a tampering path")
	}
	if m["detect_delivered"] != m["detect_sent"] {
		t.Fatalf("detection delivered %v of %v", m["detect_delivered"], m["detect_sent"])
	}
	if m["detect_alarms"] == 0 || m["first_detection_ms"] <= 0 {
		t.Fatal("detection raised no alarms")
	}
	if m["combined_mbps"] <= 0 || m["bare_mbps"] <= 0 {
		t.Fatal("overhead runs produced no throughput")
	}
	if m["combined_mbps"] > m["bare_mbps"] {
		t.Fatalf("virtual combiner (%.1f) outran the bare path (%.1f)", m["combined_mbps"], m["bare_mbps"])
	}
}

func TestRunTCPQuick(t *testing.T) {
	p := DefaultParams().Quick()
	r := RunTCP(p, ScenLinespeed)
	if r.Mbps < 300 {
		t.Fatalf("quick Linespeed TCP = %.1f Mbit/s, want near line rate", r.Mbps)
	}
	if len(r.Runs) != p.TCPRuns {
		t.Fatalf("runs = %d, want %d", len(r.Runs), p.TCPRuns)
	}
}

func TestRunUDPMaxQuick(t *testing.T) {
	p := DefaultParams().Quick()
	r := RunUDPMax(p, ScenCentral3)
	if r.Mbps < 100 || r.Mbps > 400 {
		t.Fatalf("quick Central3 UDP max = %.1f Mbit/s, want in (100, 400)", r.Mbps)
	}
	if r.Loss > p.UDPLossGoal {
		t.Fatalf("reported loss %.4f exceeds the goal", r.Loss)
	}
}

func TestRunPingQuick(t *testing.T) {
	p := DefaultParams().Quick()
	lin := RunPing(p, ScenLinespeed)
	cen := RunPing(p, ScenCentral3)
	if lin.Received != lin.Sent {
		t.Fatalf("linespeed lost pings: %d/%d", lin.Received, lin.Sent)
	}
	if cen.AvgRTT <= lin.AvgRTT {
		t.Fatalf("Central3 RTT %v not above Linespeed %v", cen.AvgRTT, lin.AvgRTT)
	}
}

// rowMetrics runs a registry row on Central3 and checks its metric key
// set — the names artifacts and the CLI's headline depend on.
func rowMetrics(t *testing.T, k Kind, p Params, wantKeys string) map[string]float64 {
	t.Helper()
	res := Run(k, p, Sizing{}, ScenCentral3, 1)
	keys := make([]string, 0, len(res.Metrics))
	for key := range res.Metrics {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != wantKeys {
		t.Fatalf("%v row metrics:\n  %s\nwant\n  %s", k, got, wantKeys)
	}
	for _, key := range k.Row().Headline {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("%v row's headline names %q, which it does not emit", k, key)
		}
	}
	return res.Metrics
}

func TestFig6LossGrowsWithLoad(t *testing.T) {
	p := DefaultParams()
	p.UDPDuration = 300 * time.Millisecond
	m := rowMetrics(t, KindLoad, p, "achieved_mbps_100 achieved_mbps_150 achieved_mbps_200 achieved_mbps_225 achieved_mbps_250 "+
		"achieved_mbps_275 achieved_mbps_300 achieved_mbps_350 achieved_mbps_400 achieved_mbps_50 "+
		"loss_100 loss_150 loss_200 loss_225 loss_250 loss_275 loss_300 loss_350 loss_400 loss_50")
	if m["loss_100"] > 0.01 {
		t.Fatalf("loss %.3f at 100 Mbit/s, want ≈0", m["loss_100"])
	}
	if m["loss_400"] <= m["loss_100"] {
		t.Fatalf("loss did not grow with load: %v", m)
	}
	// Beyond the knee the achieved rate saturates below offered.
	if m["achieved_mbps_400"] > 400*0.9 {
		t.Fatalf("achieved %.1f at offered 400 — no saturation visible", m["achieved_mbps_400"])
	}
}

// TestEvaluationShape asserts the qualitative claims of §V-B on a
// moderately sized run: security costs performance; k=5 < k=3; combining
// beats duplication for TCP; UDP tracks Linespeed more closely than TCP;
// POX3 is drastically worst; RTT ordering.
func TestEvaluationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape run takes ~1 min")
	}
	p := DefaultParams()
	p.TCPDuration = time.Second
	p.TCPRuns = 1
	p.UDPDuration = 500 * time.Millisecond
	p.PingSeqs = 1

	tcp := make(map[Scenario]float64)
	for _, s := range AllScenarios {
		tcp[s] = RunTCP(p, s).Mbps
	}
	if !(tcp[ScenLinespeed] > tcp[ScenCentral3] &&
		tcp[ScenCentral3] > tcp[ScenDup3] &&
		tcp[ScenCentral3] > tcp[ScenCentral5] &&
		tcp[ScenDup3] > tcp[ScenDup5]) {
		t.Errorf("TCP ordering violated: %v", tcp)
	}
	if tcp[ScenPOX3] > tcp[ScenCentral5]/2 {
		t.Errorf("POX3 (%.1f) not drastically below the data-plane compare (%v)", tcp[ScenPOX3], tcp)
	}
	// Security costs performance: every combiner well below Linespeed.
	for _, s := range []Scenario{ScenCentral3, ScenCentral5, ScenDup3, ScenDup5} {
		if tcp[s] > 0.5*tcp[ScenLinespeed] {
			t.Errorf("%v TCP %.1f not clearly below Linespeed %.1f", s, tcp[s], tcp[ScenLinespeed])
		}
	}

	udp := make(map[Scenario]float64)
	for _, s := range TableScenarios {
		udp[s] = RunUDPMax(p, s).Mbps
	}
	// "The test scenarios better approximate the benchmark scenario
	// Linespeed when packets are exchanged using connectionless UDP."
	for _, s := range []Scenario{ScenCentral3, ScenDup3} {
		udpRatio := udp[s] / udp[ScenLinespeed]
		tcpRatio := tcp[s] / tcp[ScenLinespeed]
		if udpRatio <= tcpRatio {
			t.Errorf("%v: UDP ratio %.2f not above TCP ratio %.2f", s, udpRatio, tcpRatio)
		}
	}
	if !(udp[ScenCentral3] > udp[ScenCentral5] && udp[ScenDup3] > udp[ScenDup5]) {
		t.Errorf("UDP k ordering violated: %v", udp)
	}

	rtt := make(map[Scenario]time.Duration)
	for _, s := range TableScenarios {
		rtt[s] = RunPing(p, s).AvgRTT
	}
	if !(rtt[ScenLinespeed] <= rtt[ScenDup3] &&
		rtt[ScenDup3] <= rtt[ScenDup5]+time.Microsecond &&
		rtt[ScenDup5] < rtt[ScenCentral3] &&
		rtt[ScenCentral3] < rtt[ScenCentral5]) {
		t.Errorf("RTT ordering violated: %v", rtt)
	}
}

// TestFig8Shape asserts the jitter claim: "bigger packets lead to lower
// jitter", most visibly for the combining scenarios.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("jitter sweep takes ~30s")
	}
	p := DefaultParams()
	p.UDPDuration = 500 * time.Millisecond
	pts := RunJitter(p, ScenCentral3, []int{128, 1470})
	if pts[0].Jitter <= pts[1].Jitter {
		t.Errorf("jitter at 128 B (%v) not above 1470 B (%v)", pts[0].Jitter, pts[1].Jitter)
	}
}

func TestKSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("k sweep takes ~20s")
	}
	p := DefaultParams()
	p.TCPDuration = 500 * time.Millisecond
	p.TCPRuns = 1
	p.UDPDuration = 300 * time.Millisecond
	p.PingSeqs = 1
	p.PingCount = 10
	var want []string
	for _, metric := range []string{"rtt_ms", "tcp_mbps", "tolerated", "udp_mbps"} {
		for _, k := range []int{1, 2, 3, 4, 5, 7} {
			want = append(want, fmt.Sprintf("%s_k%d", metric, k))
		}
	}
	m := rowMetrics(t, KindKSweep, p, strings.Join(want, " "))
	if m["tolerated_k1"] != 0 || m["tolerated_k2"] != 0 || m["tolerated_k3"] != 1 || m["tolerated_k5"] != 2 || m["tolerated_k7"] != 3 {
		t.Fatalf("tolerance wrong: %+v", m)
	}
	// Monotone cost with k.
	if !(m["tcp_mbps_k1"] > m["tcp_mbps_k3"] && m["tcp_mbps_k3"] > m["tcp_mbps_k5"]) {
		t.Errorf("TCP not decreasing in k: %+v", m)
	}
	if !(m["udp_mbps_k1"] > m["udp_mbps_k3"] && m["udp_mbps_k3"] > m["udp_mbps_k5"]) {
		t.Errorf("UDP not decreasing in k: %+v", m)
	}
	if m["rtt_ms_k1"] > m["rtt_ms_k5"] {
		t.Errorf("RTT decreasing in k: %+v", m)
	}
}

func TestDoSDefences(t *testing.T) {
	p := DefaultParams()
	p.UDPDuration = 500 * time.Millisecond
	m := rowMetrics(t, KindDoS, p, "dos_baseline_mbps dos_flood_isolated_mbps dos_flood_shared_mbps dos_quota_drops dos_replay_blocks dos_replay_mbps")
	baseline := m["dos_baseline_mbps"]
	if baseline < 90 {
		t.Fatalf("baseline %.1f Mbit/s, want ≈100", baseline)
	}
	// Port blocking confines a replaying router with no benign impact.
	if m["dos_replay_blocks"] == 0 {
		t.Fatal("replay attack never triggered a block")
	}
	if m["dos_replay_mbps"] < 0.95*baseline {
		t.Fatalf("replay goodput %.1f vs baseline %.1f — blocking ineffective", m["dos_replay_mbps"], baseline)
	}
	// Buffer isolation keeps a forged flood from starving benign copies.
	if m["dos_quota_drops"] == 0 {
		t.Fatal("isolation quota never engaged")
	}
	if m["dos_flood_isolated_mbps"] < 0.95*baseline {
		t.Fatalf("isolated flood goodput %.1f vs baseline %.1f", m["dos_flood_isolated_mbps"], baseline)
	}
	if m["dos_flood_shared_mbps"] > 0.92*m["dos_flood_isolated_mbps"] {
		t.Fatalf("shared-buffer flood goodput %.1f not clearly below isolated %.1f",
			m["dos_flood_shared_mbps"], m["dos_flood_isolated_mbps"])
	}
}

// TestPaperTable1Published sanity-checks the embedded published values.
func TestPaperTable1Published(t *testing.T) {
	if len(PaperTable1) != 5 {
		t.Fatalf("PaperTable1 rows = %d, want 5", len(PaperTable1))
	}
	if PaperTable1[0].TCPMbps != 474 {
		t.Fatalf("Linespeed paper TCP = %v, want 474", PaperTable1[0].TCPMbps)
	}
}

// BenchmarkAblationCompareMode compares the three copy-equality notions
// (§III: bit-by-bit, hashed, header-only) on Central3 UDP throughput, the
// Fig. 5 search at the Quick calibration. A figure's CPU profile:
// go test -run '^$' -bench 'AblationCompareMode/bitexact' -cpuprofile cpu.out ./internal/experiment/
func BenchmarkAblationCompareMode(b *testing.B) {
	modes := []struct {
		name string
		mode core.Mode
	}{
		{"bitexact", core.ModeBitExact},
		{"hashed", core.ModeHashed},
		{"header", core.ModeHeader},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			p := DefaultParams().Quick()
			build := func() *topo.Testbed {
				tp := p.TestbedParams(ScenCentral3, nil)
				tp.Compare.Engine.Mode = m.mode
				return topo.BuildTestbed(tp)
			}
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = runUDPMax(p, ScenCentral3, build).Mbps
			}
			b.ReportMetric(mbps, "Mbit/s")
		})
	}
}

// BenchmarkAblationHoldTimeout sweeps the compare's bounded waiting time
// (§IV: too short risks suppressing slow honest copies, too long grows
// the cache) on Central3 UDP throughput.
func BenchmarkAblationHoldTimeout(b *testing.B) {
	for _, hold := range []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(hold.String(), func(b *testing.B) {
			p := DefaultParams().Quick()
			p.CompareHold = hold
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = RunUDPMax(p, ScenCentral3).Mbps
			}
			b.ReportMetric(mbps, "Mbit/s")
		})
	}
}
