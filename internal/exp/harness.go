// Package exp regenerates every table and figure of the paper's evaluation
// section. Each runner builds the parameter sweep, executes the runs, and
// renders the series the paper plots. The execution machinery — result
// cache, bounded parallelism, scales, the optimal-UDP-gap search — is the
// public manetsim.Campaign; this package is a thin client that adds only
// the figure definitions.
package exp

import (
	"context"
	"sort"
	"sync"
	"time"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// Scale sets the measurement budget; it is the public campaign Scale.
type Scale = manetsim.Scale

// Predefined scales, re-exported for the experiment CLIs.
var (
	PaperScale = manetsim.PaperScale
	QuickScale = manetsim.QuickScale
	BenchScale = manetsim.BenchScale
)

// Harness executes figure runners over a shared manetsim.Campaign, so
// figures that overlap (e.g. Figures 6-9 plot different metrics of the
// same runs) pay for each simulation once.
type Harness struct {
	Scale Scale
	// Workers bounds parallel simulations (default GOMAXPROCS).
	Workers int

	once sync.Once
	c    *manetsim.Campaign
}

// NewHarness creates a harness at the given scale.
func NewHarness(scale Scale) *Harness {
	return &Harness{Scale: scale}
}

// Campaign returns the harness's shared campaign, creating it on first
// use.
func (h *Harness) Campaign() *manetsim.Campaign {
	h.once.Do(func() {
		h.c = manetsim.NewCampaign(h.Scale, manetsim.WithWorkers(h.Workers))
	})
	return h.c
}

// Run executes one scaled config through the campaign cache.
func (h *Harness) Run(cfg core.Config) (*core.Result, error) {
	return h.Campaign().Run(context.Background(), cfg)
}

// RunAll executes configs in parallel, preserving order and returning the
// first failure without draining the rest of the sweep.
func (h *Harness) RunAll(cfgs []core.Config) ([]*core.Result, error) {
	return h.Campaign().RunAll(context.Background(), cfgs)
}

// OptimalUDPGap finds the goodput-maximizing paced-UDP inter-packet time
// for a chain (memoized per harness).
func (h *Harness) OptimalUDPGap(hops int, rate phy.Rate) (time.Duration, error) {
	return h.Campaign().OptimalUDPGap(context.Background(), hops, rate)
}

// IDs returns the registered experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Lookup returns the runner for an experiment id (e.g. "fig6", "table3").
func Lookup(id string) (func(h *Harness) (*Figure, error), bool) {
	fn, ok := registry[id]
	return fn, ok
}

var registry = map[string]func(h *Harness) (*Figure, error){
	"table2":       Table2,
	"fig2":         Fig2,
	"fig3":         Fig3,
	"fig4":         Fig4,
	"fig5":         Fig5,
	"fig6":         Fig6,
	"fig7":         Fig7,
	"fig8":         Fig8,
	"fig9":         Fig9,
	"fig10":        Fig10,
	"fig11":        Fig11,
	"fig12":        Fig12,
	"fig13":        Fig13,
	"fig14":        Fig14,
	"fig16":        Fig16,
	"fig17":        Fig17,
	"table3":       Table3,
	"fig18":        Fig18,
	"fig19":        Fig19,
	"table4":       Table4,
	"energy":       Energy,
	"ablation":     Ablation,
	"tcpvariants":  TCPVariants,
	"transports":   Transports,
	"ccextensions": CCExtensions,
	"coexist":      Coexist,
	"lossy":        Lossy,
	"chaos":        Chaos,
	"latency":      Latency,
	"optwindow":    OptWindow,
	"mobility":     Mobility,
}
