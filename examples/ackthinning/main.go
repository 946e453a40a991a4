// Ackthinning demonstrates the Altman-Jiménez dynamic delayed-ACK scheme
// (paper Section 3.2 and Figures 5/11) as a Campaign parameter sweep: at
// 2 Mbit/s thinning barely helps TCP Vegas (its window already sits near
// the optimum), but as bandwidth grows the thinner ACK stream frees enough
// air time for both variants to gain — with Vegas+thinning ending up the
// paper's recommended protocol.
//
//	go run ./examples/ackthinning
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"

	"manetsim"
)

// demoPackets returns the demo's packet budget, overridable through
// MANETSIM_EXAMPLE_PACKETS (CI runs every example at reduced scale).
func demoPackets(def int64) int64 {
	if s := os.Getenv("MANETSIM_EXAMPLE_PACKETS"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func main() {
	transports := []manetsim.TransportSpec{
		{Name: "vegas"},
		{Name: "vegas", AckThinning: true},
		{Name: "newreno"},
		{Name: "newreno", AckThinning: true},
	}
	rates := []manetsim.Rate{manetsim.Rate2Mbps, manetsim.Rate5_5Mbps, manetsim.Rate11Mbps}

	// One declarative grid: 1 scenario x 4 transports x 3 rates. The
	// campaign runs it in parallel and dedups any repeated configs.
	campaign := manetsim.NewCampaign(manetsim.Scale{
		Name: "demo", TotalPackets: demoPackets(11000), Seed: 1,
	})
	cells, err := campaign.Sweep(context.Background(), manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(7)},
		Transports: transports,
		Rates:      rates,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Cells come back transport-major, rate-minor.
	goodput := func(ti, ri int) float64 { return cells[ti*len(rates)+ri].Goodput.Mean / 1e3 }

	fmt.Println("7-hop chain: goodput [kbit/s] with and without ACK thinning")
	fmt.Printf("%-12s", "")
	for _, t := range transports {
		fmt.Printf("%14s", t.Label())
	}
	fmt.Println()
	for ri, r := range rates {
		fmt.Printf("%-12s", fmt.Sprintf("%g Mbit/s", float64(r)/1e6))
		for ti := range transports {
			fmt.Printf("%14.1f", goodput(ti, ri))
		}
		fmt.Println()
	}
	fmt.Println("\n(expect the thinning gain to grow with bandwidth, and to be")
	fmt.Println(" smallest for Vegas at 2 Mbit/s — the paper's Figures 5 and 11)")
}
