package manetsim_test

// One benchmark per table and figure of the paper's evaluation section.
// Each iteration regenerates the complete experiment at a reduced scale
// (same 11-batch structure, fewer packets) with a fresh harness, and
// reports the headline quantity of the figure via b.ReportMetric so the
// paper-vs-measured comparison is visible straight from the bench output:
//
//	go test -bench=. -benchmem
//
// Full-fidelity regeneration (110000 packets, the paper's methodology) is
// `go run ./cmd/paperexp -all -scale paper`.

import (
	"context"
	"testing"

	"manetsim"
	"manetsim/internal/exp"
)

// benchFigure regenerates experiment id once per iteration and lets report
// extract headline metrics from the final figure.
func benchFigure(b *testing.B, id string, report func(b *testing.B, f *exp.Figure)) {
	b.Helper()
	runner, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var fig *exp.Figure
	for i := 0; i < b.N; i++ {
		h := exp.NewHarness(exp.BenchScale)
		var err error
		fig, err = runner(h)
		if err != nil {
			b.Fatal(err)
		}
	}
	if report != nil && fig != nil {
		report(b, fig)
	}
}

// point fetches series s at x (0 when absent) from a figure.
func point(f *exp.Figure, series, x string) float64 {
	for _, s := range f.Series {
		if s.Name != series {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y
			}
		}
	}
	return 0
}

func BenchmarkTable2PropagationDelay(b *testing.B) {
	benchFigure(b, "table2", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "4-hop delay", "2"), "ms@2Mbps")
		b.ReportMetric(point(f, "4-hop delay", "5.5"), "ms@5.5Mbps")
		b.ReportMetric(point(f, "4-hop delay", "11"), "ms@11Mbps")
	})
}

func BenchmarkFig2VegasAlphaGoodput(b *testing.B) {
	benchFigure(b, "fig2", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas α=2", "8"), "kbps_a2_h8")
		b.ReportMetric(point(f, "Vegas α=4", "8"), "kbps_a4_h8")
	})
}

func BenchmarkFig3VegasAlphaWindow(b *testing.B) {
	benchFigure(b, "fig3", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas α=2", "8"), "win_a2_h8")
		b.ReportMetric(point(f, "Vegas α=4", "8"), "win_a4_h8")
	})
}

func BenchmarkFig4VegasBandwidths(b *testing.B) {
	benchFigure(b, "fig4", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas α=2", "2"), "kbps@2M")
		b.ReportMetric(point(f, "Vegas α=2", "11"), "kbps@11M")
	})
}

func BenchmarkFig5VegasThinning(b *testing.B) {
	benchFigure(b, "fig5", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas α=2", "8"), "kbps_plain_h8")
		b.ReportMetric(point(f, "Vegas α=2 Thin", "8"), "kbps_thin_h8")
	})
}

func BenchmarkFig6ChainGoodput(b *testing.B) {
	benchFigure(b, "fig6", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "8"), "kbps_vegas_h8")
		b.ReportMetric(point(f, "NewReno", "8"), "kbps_newreno_h8")
		b.ReportMetric(point(f, "Paced UDP", "8"), "kbps_udp_h8")
	})
}

func BenchmarkFig7ChainRetransmissions(b *testing.B) {
	benchFigure(b, "fig7", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "8"), "rtx_vegas_h8")
		b.ReportMetric(point(f, "NewReno", "8"), "rtx_newreno_h8")
	})
}

func BenchmarkFig8ChainWindow(b *testing.B) {
	benchFigure(b, "fig8", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "8"), "win_vegas_h8")
		b.ReportMetric(point(f, "NewReno", "8"), "win_newreno_h8")
	})
}

func BenchmarkFig9FalseRouteFailures(b *testing.B) {
	benchFigure(b, "fig9", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "8"), "frf_vegas_h8")
		b.ReportMetric(point(f, "NewReno", "8"), "frf_newreno_h8")
	})
}

func BenchmarkFig10PacedUDPSweep(b *testing.B) {
	benchFigure(b, "fig10", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Paced UDP", "28"), "kbps@28ms")
		b.ReportMetric(point(f, "Paced UDP", "36"), "kbps@36ms")
		b.ReportMetric(point(f, "Paced UDP", "44"), "kbps@44ms")
	})
}

func BenchmarkFig11SevenHopGoodput(b *testing.B) {
	benchFigure(b, "fig11", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "11"), "kbps_vegas@11M")
		b.ReportMetric(point(f, "Vegas Thin", "11"), "kbps_vthin@11M")
		b.ReportMetric(point(f, "NewReno OptWin", "11"), "kbps_optwin@11M")
	})
}

func BenchmarkFig12SevenHopRetransmissions(b *testing.B) {
	benchFigure(b, "fig12", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "2"), "rtx_vegas@2M")
		b.ReportMetric(point(f, "NewReno", "2"), "rtx_newreno@2M")
	})
}

func BenchmarkFig13SevenHopWindow(b *testing.B) {
	benchFigure(b, "fig13", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "2"), "win_vegas@2M")
		b.ReportMetric(point(f, "NewReno", "2"), "win_newreno@2M")
	})
}

func BenchmarkFig14LinkLayerDrops(b *testing.B) {
	benchFigure(b, "fig14", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "2"), "p_vegas@2M")
		b.ReportMetric(point(f, "NewReno", "2"), "p_newreno@2M")
	})
}

func BenchmarkFig16GridAggregateGoodput(b *testing.B) {
	benchFigure(b, "fig16", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "11"), "kbps_vegas@11M")
		b.ReportMetric(point(f, "NewReno", "11"), "kbps_newreno@11M")
	})
}

func BenchmarkFig17GridPerFlow(b *testing.B) {
	benchFigure(b, "fig17", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "Aggregate"), "kbps_vegas_agg")
		b.ReportMetric(point(f, "NewReno", "Aggregate"), "kbps_newreno_agg")
	})
}

func BenchmarkTable3GridFairness(b *testing.B) {
	benchFigure(b, "table3", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "11"), "jain_vegas@11M")
		b.ReportMetric(point(f, "NewReno", "11"), "jain_newreno@11M")
		b.ReportMetric(point(f, "Vegas Thin", "11"), "jain_vthin@11M")
	})
}

func BenchmarkFig18RandomAggregateGoodput(b *testing.B) {
	benchFigure(b, "fig18", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "11"), "kbps_vegas@11M")
		b.ReportMetric(point(f, "NewReno", "11"), "kbps_newreno@11M")
	})
}

func BenchmarkFig19RandomPerFlow(b *testing.B) {
	benchFigure(b, "fig19", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "Aggregate"), "kbps_vegas_agg")
		b.ReportMetric(point(f, "NewReno", "Aggregate"), "kbps_newreno_agg")
	})
}

func BenchmarkTable4RandomFairness(b *testing.B) {
	benchFigure(b, "table4", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "11"), "jain_vegas@11M")
		b.ReportMetric(point(f, "NewReno", "11"), "jain_newreno@11M")
	})
}

func BenchmarkEnergyPerMegabyte(b *testing.B) {
	benchFigure(b, "energy", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "2"), "JperMB_vegas@2M")
		b.ReportMetric(point(f, "NewReno", "2"), "JperMB_newreno@2M")
	})
}

// BenchmarkAblationNoCapture quantifies the PHY capture decision from
// DESIGN.md §5: without capture, hidden-terminal interference kills
// in-progress frames and goodput collapses.
func BenchmarkAblationNoCapture(b *testing.B) {
	benchFigure(b, "ablation", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas", "default (capture+AODV)"), "kbps_default")
		b.ReportMetric(point(f, "Vegas", "no capture"), "kbps_nocapture")
		b.ReportMetric(point(f, "Vegas", "static routes"), "kbps_static")
	})
}

// BenchmarkAblationStaticRoutes isolates AODV's false-route-failure cost
// against precomputed static routes (same figure, NewReno series).
func BenchmarkAblationStaticRoutes(b *testing.B) {
	benchFigure(b, "ablation", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "NewReno", "default (capture+AODV)"), "kbps_aodv")
		b.ReportMetric(point(f, "NewReno", "static routes"), "kbps_static")
	})
}

// BenchmarkSingleRunChain8Vegas measures raw simulator throughput for one
// scenario (events, allocations) rather than a whole figure.
func BenchmarkSingleRunChain8Vegas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := manetsim.Run(context.Background(), manetsim.Chain(8),
			manetsim.WithBandwidth(manetsim.Rate2Mbps),
			manetsim.WithTransport(manetsim.TransportSpec{Name: "vegas"}),
			manetsim.WithSeed(int64(i+1)),
			manetsim.WithPackets(2200, 200),
		)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.AggGoodput.Mean/1e3, "kbit/s")
			b.ReportMetric(float64(res.Delivered), "packets")
		}
	}
}

// BenchmarkOptimalWindowSweep regenerates the extension experiment
// validating the "optimal window ~ h/4" claim.
func BenchmarkOptimalWindowSweep(b *testing.B) {
	benchFigure(b, "optwindow", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "NewReno MaxWin", "2"), "kbps_w2")
		b.ReportMetric(point(f, "NewReno MaxWin", "3"), "kbps_w3")
		b.ReportMetric(point(f, "NewReno MaxWin", "16"), "kbps_w16")
	})
}

// BenchmarkCoexistence regenerates the protocol-coexistence extension.
func BenchmarkCoexistence(b *testing.B) {
	benchFigure(b, "coexist", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Vegas group", "11"), "kbps_vegas_grp")
		b.ReportMetric(point(f, "NewReno group", "11"), "kbps_newreno_grp")
	})
}

// BenchmarkTCPVariants regenerates the Tahoe/Reno/NewReno/Vegas chain
// comparison from the related-work reproduction.
func BenchmarkTCPVariants(b *testing.B) {
	benchFigure(b, "tcpvariants", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "Tahoe", "7"), "kbps_tahoe_h7")
		b.ReportMetric(point(f, "Reno", "7"), "kbps_reno_h7")
		b.ReportMetric(point(f, "NewReno", "7"), "kbps_newreno_h7")
		b.ReportMetric(point(f, "Vegas", "7"), "kbps_vegas_h7")
	})
}

// BenchmarkLatency regenerates the end-to-end delay extension experiment.
func BenchmarkLatency(b *testing.B) {
	benchFigure(b, "latency", func(b *testing.B, f *exp.Figure) {
		b.ReportMetric(point(f, "mean", "Vegas"), "ms_vegas_mean")
		b.ReportMetric(point(f, "mean", "NewReno"), "ms_newreno_mean")
	})
}
