package core

import (
	"testing"
	"time"

	"manetsim/internal/phy"
)

func TestRunRenoAndTahoeVariants(t *testing.T) {
	for _, proto := range []string{"reno", "tahoe"} {
		res, err := Run(smallCfg(Chain(3), TransportSpec{Name: proto}))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Truncated || res.Delivered < 1100 {
			t.Errorf("%v: delivered %d (truncated=%v)", proto, res.Delivered, res.Truncated)
		}
		if res.AggGoodput.Mean <= 0 {
			t.Errorf("%v: zero goodput", proto)
		}
	}
}

func TestRunDelayedAckSink(t *testing.T) {
	plain, err := Run(smallCfg(Chain(2), TransportSpec{Name: "newreno"}))
	if err != nil {
		t.Fatal(err)
	}
	delack, err := Run(smallCfg(Chain(2), TransportSpec{Name: "newreno", DelayedAck: true}))
	if err != nil {
		t.Fatal(err)
	}
	if delack.Delivered < 1100 {
		t.Fatalf("delayed-ack run starved: %d", delack.Delivered)
	}
	// Delayed ACKs halve the reverse traffic; goodput must not collapse.
	if delack.AggGoodput.Mean < plain.AggGoodput.Mean/2 {
		t.Errorf("delayed-ack goodput %.0f collapsed vs plain %.0f",
			delack.AggGoodput.Mean, plain.AggGoodput.Mean)
	}
}

func TestRunRejectsThinningPlusDelack(t *testing.T) {
	_, err := Run(smallCfg(Chain(2), TransportSpec{Name: "newreno", DelayedAck: true, AckThinning: true}))
	if err == nil {
		t.Error("mutually exclusive ACK policies accepted")
	}
}

func TestRunPerFlowTransportMix(t *testing.T) {
	v := TransportSpec{Name: "vegas", Alpha: 2}
	n := TransportSpec{Name: "newreno"}
	scn := Grid()
	for i, tspec := range []TransportSpec{v, v, v, n, n, n} {
		scn.Flows[i].Transport = tspec
	}
	cfg := smallCfg(scn, TransportSpec{Name: "vegas"})
	cfg.TotalPackets = 2200
	cfg.BatchPackets = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFlowGood) != 6 {
		t.Fatalf("per-flow results = %d, want 6", len(res.PerFlowGood))
	}
	if res.Delivered < 2200 {
		t.Errorf("mixed run delivered %d, want 2200", res.Delivered)
	}
}

func TestRunPartialPerFlowTransportInheritsDefault(t *testing.T) {
	// Flows without their own TransportSpec inherit Config.Transport;
	// a run whose flows mix explicit and inherited transports must work.
	scn := Grid()
	scn.Flows[0].Transport = TransportSpec{Name: "newreno"}
	cfg := smallCfg(scn, TransportSpec{Name: "vegas"})
	cfg.TotalPackets = 2200
	cfg.BatchPackets = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < 2200 {
		t.Errorf("mixed-inheritance run delivered %d, want 2200", res.Delivered)
	}
}

func TestRunDelayStatistics(t *testing.T) {
	res, err := Run(smallCfg(Chain(4), TransportSpec{Name: "vegas"}))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Delay
	if d.N == 0 {
		t.Fatal("no delay samples collected")
	}
	// A 4-hop exchange takes >= 4 * 7.3ms; anything below is impossible,
	// and the p95 must dominate the median.
	if d.Mean < 25*time.Millisecond {
		t.Errorf("mean delay %v below the physical floor", d.Mean)
	}
	if d.P95 < d.P50 {
		t.Errorf("p95 %v < p50 %v", d.P95, d.P50)
	}
	if d.Max < d.P95 {
		t.Errorf("max %v < p95 %v", d.Max, d.P95)
	}
}

func TestRunUDPDelayStatistics(t *testing.T) {
	cfg := smallCfg(Chain(4), TransportSpec{Name: "pacedudp", UDPGap: 40 * time.Millisecond})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay.N == 0 {
		t.Fatal("no UDP delay samples")
	}
	// Paced UDP at a conservative rate has no queueing: delay close to
	// the 4-hop pipeline time (~30ms), certainly below 100ms.
	if res.Delay.P50 > 100*time.Millisecond {
		t.Errorf("UDP median delay %v, want near the uncontended pipeline time", res.Delay.P50)
	}
}

// TestRunLongChainEstablishesRoute guards the AODV TTL regression: a
// 64-hop flood must reach the destination and traffic must flow.
func TestRunLongChainEstablishesRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("64-hop run is slow")
	}
	cfg := smallCfg(Chain(64), TransportSpec{Name: "vegas"})
	cfg.TotalPackets = 550
	cfg.BatchPackets = 50
	cfg.MaxSimTime = 30 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < 550 {
		t.Errorf("64-hop chain delivered %d packets (truncated=%v); AODV flood TTL regression?",
			res.Delivered, res.Truncated)
	}
}

func TestBandwidthMonotoneGoodput(t *testing.T) {
	// More bandwidth must not reduce goodput (sub-linear growth is the
	// paper's point, but monotonicity should hold).
	var prev float64
	for _, r := range []phy.Rate{phy.Rate2Mbps, phy.Rate5_5Mbps, phy.Rate11Mbps} {
		cfg := smallCfg(Chain(7), TransportSpec{Name: "vegas"})
		cfg.Bandwidth = r
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGoodput.Mean < prev {
			t.Errorf("goodput decreased at %v: %.0f < %.0f", r, res.AggGoodput.Mean, prev)
		}
		prev = res.AggGoodput.Mean
	}
}
