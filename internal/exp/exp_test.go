package exp

import (
	"strings"
	"testing"

	"manetsim/internal/core"
	"manetsim/internal/phy"
)

func TestTable2MatchesPaper(t *testing.T) {
	f, err := Table2(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"2": 29, "5.5": 12, "11": 8}
	pts := f.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for _, p := range pts {
		if want[p.X] != p.Y {
			t.Errorf("delay at %s Mbit/s = %v ms, want %v (paper Table 2)", p.X, p.Y, want[p.X])
		}
	}
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	// Every evaluated table/figure of the paper plus the extension
	// experiments.
	want := []string{
		"table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig16",
		"fig17", "table3", "fig18", "fig19", "table4", "energy", "ablation",
		"tcpvariants", "coexist", "latency", "optwindow", "mobility",
	}
	ids := IDs()
	got := map[string]bool{}
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func TestHarnessCacheDedupsRuns(t *testing.T) {
	h := NewHarness(BenchScale)
	cfg := chainCfg(2, phy.Rate2Mbps, core.TransportSpec{Name: "vegas", Alpha: 2})
	a, err := h.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical configs were not served from the cache")
	}
}

func TestHarnessRunAllPreservesOrder(t *testing.T) {
	h := NewHarness(BenchScale)
	cfgs := []core.Config{
		chainCfg(2, phy.Rate2Mbps, core.TransportSpec{Name: "vegas", Alpha: 2}),
		chainCfg(3, phy.Rate2Mbps, core.TransportSpec{Name: "vegas", Alpha: 2}),
	}
	results, err := h.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Flows) != 1 || results[0].Flows[0].Dst != 2 {
		t.Errorf("result 0 is not the 2-hop run: flows=%v", results[0].Flows)
	}
	if results[1].Flows[0].Dst != 3 {
		t.Errorf("result 1 is not the 3-hop run: flows=%v", results[1].Flows)
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := &Figure{
		ID: "test", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: "1", Y: 10}, {X: "2", Y: 20}}},
			{Name: "b", Points: []Point{{X: "1", Y: 0.5, CI: 0.1}}},
		},
		Notes: []string{"hello"},
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "a", "b", "10", "±0.1", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := f.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.Contains(csv, `"a","1",10,0`) || !strings.Contains(csv, `"b","1",0.5,0.1`) {
		t.Errorf("csv output wrong:\n%s", csv)
	}
}

func TestOptimalUDPGapShortVsLongChain(t *testing.T) {
	h := NewHarness(BenchScale)
	short, err := h.OptimalUDPGap(2, phy.Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	long, err := h.OptimalUDPGap(8, phy.Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if short <= 0 || long <= 0 {
		t.Fatalf("gaps = %v, %v; want positive", short, long)
	}
	// Memoization: second call hits the memo.
	again, err := h.OptimalUDPGap(8, phy.Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if again != long {
		t.Error("gap memoization broken")
	}
}

func TestFig10FindsInteriorOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 sweep is slow")
	}
	h := NewHarness(BenchScale)
	f, err := Fig10(h)
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Series[0].Points
	if len(pts) != 9 {
		t.Fatalf("sweep points = %d, want 9 (28..44 ms step 2)", len(pts))
	}
	// The paper's Figure 10 shape: goodput collapses on the fast side and
	// degrades gently on the slow side, so the best point is interior or
	// near 36ms, and the fastest gap must be clearly worse than the best.
	best, bestIdx := -1.0, 0
	for i, p := range pts {
		if p.Y > best {
			best, bestIdx = p.Y, i
		}
	}
	if bestIdx == 0 {
		t.Errorf("optimum at the fastest gap (28ms); cliff missing: %+v", pts)
	}
	if pts[0].Y >= best {
		t.Errorf("28ms goodput %.1f >= optimum %.1f", pts[0].Y, best)
	}
}

func TestHarnessCacheKeyStableAcrossEqualScenarios(t *testing.T) {
	// The cache key is derived from values, following the Scenario pointer
	// into its nodes and flows: two independently built but equal
	// scenarios must share one cached run.
	mk := func() core.Config {
		scn := core.Grid().WithFlows(
			core.Flow{Src: 0, Dst: 13, Transport: core.TransportSpec{Name: "vegas", Alpha: 2}},
			core.Flow{Src: 7, Dst: 20, Transport: core.TransportSpec{Name: "newreno"}},
		)
		return core.Config{
			Scenario:  scn,
			Bandwidth: phy.Rate2Mbps,
			Transport: core.TransportSpec{Name: "vegas", Alpha: 2},
		}
	}
	h := NewHarness(BenchScale)
	ra, err := h.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := h.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Error("equal configs carrying distinct scenario pointers were not served from the cache")
	}
	// Differing flow sets must key differently.
	c := mk()
	c.Scenario.Flows[1].Dst = 19
	rc, err := h.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rc == ra {
		t.Error("configs with different flows shared a cache entry")
	}
}

func TestMobilityRunnerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("mobility sweep is slow")
	}
	h := NewHarness(BenchScale)
	f, err := Mobility(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want 4 (Vegas/NewReno x plain/thin)", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != len(mobilitySpeeds) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Points), len(mobilitySpeeds))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("series %q at %s m/s: goodput %.1f, want > 0", s.Name, p.X, p.Y)
			}
		}
	}
	if len(f.Notes) != 4*len(mobilitySpeeds) {
		t.Errorf("notes = %d, want one per run", len(f.Notes))
	}
}
