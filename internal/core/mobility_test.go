package core

import (
	"encoding/json"
	"testing"
	"time"
)

// mobileGridCfg is a small random-waypoint scenario: the grid's 21 nodes
// with one corner-to-corner flow, moving inside the grid's bounding box.
func mobileGridCfg(maxSpeed float64) Config {
	scn := Grid().WithFlows(Flow{Src: 0, Dst: 20})
	if maxSpeed > 0 {
		scn.WithMobility(MobilitySpec{
			Kind:             MobilityRandomWaypoint,
			MaxSpeed:         maxSpeed,
			Pause:            500 * time.Millisecond,
			PinFlowEndpoints: true,
		})
	}
	return Config{
		Scenario:     scn,
		Transport:    TransportSpec{Name: "vegas"},
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
		MaxSimTime:   30 * time.Minute,
	}
}

// resultBytes encodes a Result deterministically for byte-level comparison.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runTwice executes the same config twice and fails unless the results are
// byte-identical — the reproducibility promise the dynamic-channel refactor
// must keep.
func runTwice(t *testing.T, cfg Config) *Result {
	t.Helper()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ab, bb := resultBytes(t, a), resultBytes(t, b)
	if string(ab) != string(bb) {
		t.Fatalf("same config+seed produced different results:\n%s\nvs\n%s", ab, bb)
	}
	return a
}

func TestStaticRunDeterministicPerSeed(t *testing.T) {
	res := runTwice(t, Config{
		Scenario:     Chain(4),
		Transport:    TransportSpec{Name: "vegas"},
		Seed:         7,
		TotalPackets: 1100,
		BatchPackets: 100,
	})
	if res.Delivered < 1100 {
		t.Errorf("delivered %d, want >= 1100", res.Delivered)
	}
	if res.TrueRouteFailures != 0 {
		t.Errorf("static run reported %d true route failures, want 0", res.TrueRouteFailures)
	}
}

func TestMobileRunDeterministicPerSeed(t *testing.T) {
	res := runTwice(t, mobileGridCfg(20))
	if res.Delivered == 0 {
		t.Fatal("mobile run delivered nothing")
	}
}

func TestMobilityCausesTrueRouteFailures(t *testing.T) {
	static, err := Run(mobileGridCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if static.TrueRouteFailures != 0 {
		t.Errorf("speed 0: %d true route failures, want 0", static.TrueRouteFailures)
	}
	mobile, err := Run(mobileGridCfg(20))
	if err != nil {
		t.Fatal(err)
	}
	if mobile.TrueRouteFailures == 0 {
		t.Error("speed 20 m/s: no true route failures — routes never genuinely broke")
	}
	if mobile.Delivered == 0 {
		t.Error("speed 20 m/s: nothing delivered — routes never re-established")
	}
}

func TestSeedChangesMobileRun(t *testing.T) {
	cfg := mobileGridCfg(20)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime == b.SimTime && a.AggGoodput.Mean == b.AggGoodput.Mean {
		t.Error("different seeds produced identical mobile runs")
	}
}

func TestStaticRoutingRejectsMobility(t *testing.T) {
	cfg := mobileGridCfg(10)
	cfg.Scenario.Routing = RoutingStatic
	if _, err := Run(cfg); err == nil {
		t.Fatal("static routing with mobility accepted")
	}
}

func TestUnknownMobilityKindRejected(t *testing.T) {
	cfg := mobileGridCfg(0)
	cfg.Scenario.Mobility.Kind = MobilityKind(99)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown mobility kind accepted")
	}
}

func TestHalfSpecifiedFieldRejected(t *testing.T) {
	cfg := mobileGridCfg(10)
	cfg.Scenario.Mobility.FieldWidth = 2000 // height left 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("half-specified mobility field accepted")
	}
}

func TestSubUnitMaxSpeedUsable(t *testing.T) {
	// MinSpeed unset + MaxSpeed below the 1 m/s default must not fail
	// validation: the default floor adapts down to MaxSpeed.
	cfg := mobileGridCfg(0.5)
	cfg.TotalPackets = 220
	cfg.BatchPackets = 20
	if _, err := Run(cfg); err != nil {
		t.Fatalf("MaxSpeed 0.5 with MinSpeed unset rejected: %v", err)
	}
}
