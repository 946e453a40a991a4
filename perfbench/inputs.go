package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"manetsim"
	"manetsim/internal/phy"
)

// Workload inputs. Everything a workload runs is generated here from the
// workload seed alone, so the simulator only ever receives explicit
// Scenarios and Configs: no scenario generator inside manetsim draws
// anything on the benchmark's behalf.

const (
	// defaultSeed is the workload seed used when none is given;
	// heldOutSeed is kept aside for confirming a claim on inputs that were
	// not looked at while the change was written.
	defaultSeed = 1
	heldOutSeed = 7919

	fieldNodes  = 120
	fieldWidth  = 2500.0
	fieldHeight = 1000.0
	fieldFlows  = 10
	// pairSample is how many random node pairs estimate a placement's
	// pair-distance quantiles, which stratify its flows.
	pairSample = 1000
	// fieldPlacements is how many placements one field round runs; the
	// read leg serves them as one sweep.
	fieldPlacements = 4

	gridCols, gridRows = 15, 14
	gridSpacing        = 200.0
	// sweepReplicates is the number of seeds in one sweep round;
	// campaignRounds is how many rounds one write campaign serves.
	sweepReplicates = 64
	campaignRounds  = 4

	// Per-run budgets in delivered packets. They are as small as keeps a
	// run's host time per packet, and its split across layers, within a
	// few percent of a run at BenchScale's 2200 packets, so that a window
	// averages over many placements and seeds: the time a field run takes
	// varies by about half its mean from one placement to the next, and a
	// 32-hop chain run's by a tenth from one seed to the next. At 11
	// packets per flow, route discovery and slow start would carry a field
	// run (README.md compares the budgets). The sweep's budget is small on
	// purpose: it measures world reuse and store I/O, not the kernel.
	chainPackets = 550
	fieldPackets = 1100
	sweepPackets = 44
)

// refRounds is how many leading rounds of each workload form its
// reference set; each set takes about two seconds to simulate.
var refRounds = map[string]int{"chain": 2, "field": 1, "sweep": 4}

// budget returns a Base config carrying the per-run measurement budget:
// total delivered packets, in the paper's 11-batch structure.
func budget(total int64) manetsim.Config {
	return manetsim.Config{TotalPackets: total, BatchPackets: total / 11}
}

// warmup turns a run into the set-up's warm-up run, which builds a
// World's arena for the run's network: the minimal budget on one flow,
// from node 0 to its nearest neighbour, so that set-up time does not
// depend on how far apart a random placement put the flows' endpoints.
func warmup(cfg manetsim.Config) manetsim.Config {
	scn := cfg.Scenario.Clone()
	nodes := scn.Nodes
	near := 1
	for i := 2; i < len(nodes); i++ {
		if dist(nodes[0], nodes[i]) < dist(nodes[0], nodes[near]) {
			near = i
		}
	}
	scn.Flows = []manetsim.Flow{{Src: 0, Dst: manetsim.NodeID(near)}}
	cfg.Scenario = scn
	cfg.TotalPackets, cfg.BatchPackets = 11, 1
	return cfg
}

func dist(a, b manetsim.Position) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

var transports = []manetsim.TransportSpec{{Name: "vegas"}, {Name: "newreno"}}

// seedStream draws distinct positive simulation seeds.
type seedStream struct {
	rng  *rand.Rand
	seen map[int64]bool
}

func newSeedStream(rng *rand.Rand) *seedStream {
	return &seedStream{rng: rng, seen: map[int64]bool{}}
}

func (s *seedStream) next() int64 {
	for {
		v := s.rng.Int63n(math.MaxInt32) + 1
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

func (s *seedStream) take(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// roundInputs memoizes a per-round input generator drawing from one
// stream seeded with the workload seed, so round r's inputs depend only
// on the seed and r. Every round gets fresh inputs: a run averages over
// as many placements and simulation seeds as its window holds.
func roundInputs(seed int64, gen func(rng *rand.Rand, seeds *seedStream) manetsim.Sweep) func(round int) manetsim.Sweep {
	rng := rand.New(rand.NewSource(seed))
	seeds := newSeedStream(rng)
	var memo []manetsim.Sweep
	return func(round int) manetsim.Sweep {
		for len(memo) <= round {
			memo = append(memo, gen(rng, seeds))
		}
		return memo[round]
	}
}

// chainInputs: each round runs Vegas and NewReno on an 8-hop and a
// 32-hop chain under two fresh simulation seeds.
func chainInputs(seed int64) func(round int) manetsim.Sweep {
	chains := []*manetsim.Scenario{manetsim.Chain(8), manetsim.Chain(32)}
	return roundInputs(seed, func(_ *rand.Rand, seeds *seedStream) manetsim.Sweep {
		return manetsim.Sweep{
			Scenarios:  chains,
			Transports: transports,
			Rates:      []manetsim.Rate{manetsim.Rate2Mbps},
			Seeds:      seeds.take(2),
			Base:       budget(chainPackets),
		}
	})
}

// fieldInputs: each round runs fieldPlacements fresh random placements,
// each with fresh random flows, under one transport, Vegas and NewReno in
// turn. One run per placement packs the most placements into a window.
func fieldInputs(seed int64) func(round int) manetsim.Sweep {
	n, round := 0, 0
	return roundInputs(seed, func(rng *rand.Rand, seeds *seedStream) manetsim.Sweep {
		round++
		scns := make([]*manetsim.Scenario, fieldPlacements)
		for i := range scns {
			n++
			scns[i] = randomField(rng, fmt.Sprintf("field-%d", n))
		}
		return manetsim.Sweep{
			Scenarios:  scns,
			Transports: transports[round%2 : round%2+1],
			Rates:      []manetsim.Rate{manetsim.Rate2Mbps},
			Seeds:      seeds.take(1),
			Base:       budget(fieldPackets),
		}
	})
}

// randomField places fieldNodes uniformly on the field, redrawing the
// whole placement until it is connected under the radio range, and picks
// fieldFlows source/destination pairs at random, one from each
// fieldFlows-quantile of pair distance. A run's host time per packet
// follows its flows' hop counts; with pairs drawn unstratified, one
// placement's packets cost up to twice another's.
func randomField(rng *rand.Rand, name string) *manetsim.Scenario {
	var pts []manetsim.Position
	for {
		pts = pts[:0]
		for i := 0; i < fieldNodes; i++ {
			pts = append(pts, manetsim.Position{X: rng.Float64() * fieldWidth, Y: rng.Float64() * fieldHeight})
		}
		if connected(pts, phy.TxRange) {
			break
		}
	}
	scn := manetsim.NewScenario(name)
	for _, p := range pts {
		scn.AddNode(p.X, p.Y)
	}
	// Pair-distance quantiles, estimated from a sample of pairs, bound the
	// strata; rejection sampling then draws one pair inside each.
	ds := make([]float64, 0, pairSample)
	for len(ds) < pairSample {
		if i, j := rng.Intn(fieldNodes), rng.Intn(fieldNodes); i != j {
			ds = append(ds, dist(pts[i], pts[j]))
		}
	}
	slices.Sort(ds)
	bound := func(k int) float64 {
		switch k {
		case 0:
			return 0
		case fieldFlows:
			return math.Inf(1)
		}
		return ds[k*len(ds)/fieldFlows]
	}
	for k := 0; k < fieldFlows; k++ {
		for {
			src, dst := rng.Intn(fieldNodes), rng.Intn(fieldNodes)
			if d := dist(pts[src], pts[dst]); src != dst && d >= bound(k) && d < bound(k+1) {
				scn.AddFlow(manetsim.NodeID(src), manetsim.NodeID(dst))
				break
			}
		}
	}
	return scn
}

// connected reports whether the unit-disk graph over pts is connected.
func connected(pts []manetsim.Position, within float64) bool {
	seen := make([]bool, len(pts))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range pts {
			if !seen[v] && dist(pts[u], pts[v]) <= within {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(pts)
}

// gridScenario is the sweep workload's network: the 210-node grid under
// precomputed static routes, carrying one short Vegas flow.
func gridScenario() *manetsim.Scenario {
	scn := manetsim.NewScenario("grid-210").WithRouting(manetsim.RoutingStatic)
	for r := 0; r < gridRows; r++ {
		for c := 0; c < gridCols; c++ {
			scn.AddNode(float64(c)*gridSpacing, float64(r)*gridSpacing)
		}
	}
	return scn.AddFlow(0, 2)
}

// sweepInputs: each round replicates the grid's Vegas flow over
// sweepReplicates fresh seeds, so the write pass never hits its store.
func sweepInputs(seed int64) func(round int) manetsim.Sweep {
	scn := gridScenario()
	return roundInputs(seed, func(_ *rand.Rand, seeds *seedStream) manetsim.Sweep {
		return manetsim.Sweep{
			Scenarios:  []*manetsim.Scenario{scn},
			Transports: transports[:1],
			Rates:      []manetsim.Rate{manetsim.Rate2Mbps},
			Seeds:      seeds.take(sweepReplicates),
			Base:       budget(sweepPackets),
		}
	})
}

// expand lists a sweep's runs in the order and form Campaign.Sweep builds
// them, so a run executed on a World has the same cache key as the
// campaign's and its stored result serves the campaign's cell.
func expand(sw manetsim.Sweep) []manetsim.Config {
	var cfgs []manetsim.Config
	for _, scn := range sw.Scenarios {
		for _, t := range sw.Transports {
			for _, r := range sw.Rates {
				for _, seed := range sw.Seeds {
					cfg := sw.Base
					cfg.Scenario = scn
					cfg.Transport = t
					cfg.Bandwidth = r
					cfg.Seed = seed
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}
