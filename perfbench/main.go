// Command perfbench is manetsim's benchmark. It runs one workload —
// chain, field or sweep — for a measured window and prints its metrics,
// its output checks and a digest of its simulated results. Run it from
// the repository root:
//
//	bash perfbench/run.sh --workload chain --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a CPU-profiled run. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A run sets its workload up at least setupReps times and for at least
// setupMin in all; setup_s is the median. One chain set-up takes a fifth
// of a millisecond, and single set-ups scatter by a factor of two.
const (
	setupReps = 25
	setupMin  = 500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, CPU-profiled")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "scratch directory for stores")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case !slices.Contains(workloadNames, o.workload):
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := measureWorkload(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measureWorkload sets the workload up repeatedly, keeps the last set-up,
// measures it and reports. The scratch directory and the loopback
// listener are the benchmark's scaffolding, not the workload's set-up:
// they are made outside the timed set-ups.
func measureWorkload(o options, stdout io.Writer) (*result, error) {
	lb, err := newLoopback()
	if err != nil {
		return nil, err
	}
	defer lb.close()
	// fresh sets the workload up in a new scratch directory, timing only
	// the set-up itself, in process CPU time.
	fresh := func() (*bench, float64, error) {
		dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
		if err != nil {
			return nil, 0, err
		}
		runtime.GC()
		start := cpuTime()
		b, err := setup(o.workload, o.seed, dir)
		took := (cpuTime() - start).Seconds()
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, 0, err
		}
		b.lb = lb
		return b, took, nil
	}
	var (
		b      *bench
		setups []float64
		total  float64
	)
	for len(setups) < setupReps || total < setupMin.Seconds() {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		var took float64
		if b, took, err = fresh(); err != nil {
			return nil, err
		}
		setups = append(setups, took)
		total += took
	}
	defer func() { _ = b.close() }()
	runtime.GC()

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %t\n", o.workload, o.seed, o.seconds, o.trace)
	window := time.Duration(o.seconds * float64(time.Second))
	var t tally
	m := map[string]float64{}
	if !o.trace {
		if _, err := b.measure(window, 0, &t); err != nil {
			return nil, err
		}
		m["pkts_per_s"] = float64(t.delivered) / t.simCPU.Seconds()
		m["replicates_per_s"] = float64(t.runs) / t.simCPU.Seconds()
		m["stored_runs_per_s"] = float64(t.served) / t.readCPU.Seconds()
		m["setup_s"] = median(setups)
		m["alloc_mb"] = float64(t.allocated) / 1e6 / float64(t.rounds)
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		m["rss_mb"] = rss
	} else {
		// Half the window untraced, for trace.overhead; then the same
		// rounds again under the profiler, on a fresh set-up of the same
		// seed, so that both halves time the same inputs.
		var u tally
		n, err := b.measure(window/2, 0, &u)
		if err != nil {
			return nil, err
		}
		untraced := b.digest()
		if err := b.close(); err != nil {
			return nil, err
		}
		if b, _, err = fresh(); err != nil {
			return nil, err
		}
		runtime.GC()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		_, err = b.measure(0, n, &t)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := b.traced(m, &u, &t, prof.Bytes()); err != nil {
			return nil, err
		}
		t.attempted += u.attempted + 1
		t.failed += u.failed
		t.failures = append(u.failures, t.failures...)
		if b.digest() != untraced {
			t.fail("the traced rounds' reference results differ from the untraced rounds'")
		}
	}
	b.rerunCheck(&t)

	fmt.Fprintf(stdout, "digest %s sha256:%s\n", o.workload, b.digest())
	for _, f := range t.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	fmt.Fprintf(stdout, "checks %s: %d of %d operations failed (fail_share %g)\n",
		o.workload, t.failed, t.attempted, float64(t.failed)/float64(t.attempted))
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	for _, mt := range list {
		v, ok := m[mt.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", mt.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing to divide by, as when every operation failed
		}
		res.Metrics[mt.Name] = value{Value: v, Unit: mt.Unit}
		fmt.Fprintf(stdout, "metric %-30s %14s %s\n", mt.Name, strconv.FormatFloat(v, 'g', 6, 64), mt.Unit)
	}
	return res, nil
}

// traced fills the per-layer metrics from the untraced rounds u, the
// profiled replay of the same rounds t and its CPU profile.
func (b *bench) traced(m map[string]float64, u, t *tally, prof []byte) error {
	stacks, err := decodeProfile(prof)
	if err != nil {
		return err
	}
	// Input generation and output checks run inside the profiled window
	// but are not the workload.
	stacks = slices.DeleteFunc(stacks, func(s Stack) bool { return s.Untimed })
	a := Attribute(stacks, entries)
	// An op is a delivered packet on chain and field, a replicate on sweep.
	ops := float64(t.delivered)
	if b.camp != nil {
		ops = float64(t.runs)
	}
	for _, l := range selfLayers {
		m[l+".self_us_per_op"] = float64(a.Self[l]) / 1e3 / ops
	}
	share := func(ns int64) float64 {
		if a.Total == 0 {
			return 0
		}
		return float64(ns) / float64(a.Total)
	}
	m["other.share"] = share(a.Self[layerOther])
	m["runtime.gc_share"] = share(a.GC)
	m["trace.overhead"] = (float64(t.delivered) / t.simCPU.Seconds()) / (float64(u.delivered) / u.simCPU.Seconds())
	m["core.build_ms_per_run"] = float64(a.Inclusive[entryBuild]) / 1e6 / float64(t.runs)
	m["campaign.store_get_ms"] = float64(a.Inclusive[entryStoreGet]) / 1e6 / ops
	m["campaign.store_put_ms"] = float64(a.Inclusive[entryStorePut]) / 1e6 / ops
	m["serve.request_ms"] = float64(a.Inclusive[entryServe]) / 1e6 / float64(t.requests)
	m["campaign.worker_util"] = u.simCPU.Seconds() / (u.simDur.Seconds() * float64(b.workers))

	var submitted, drops, pkts, rtx, falseFail uint64
	var window float64
	var simTime float64
	var delivered int64
	for _, r := range b.ref {
		for _, bt := range r.Batches {
			submitted += bt.MACSubmitted
			drops += bt.MACDrops
			falseFail += bt.FalseRouteFailures
			for _, p := range bt.PerFlowPackets {
				pkts += uint64(p)
			}
			for _, x := range bt.PerFlowRtx {
				rtx += x
			}
		}
		window += r.AvgWindow.Mean
		simTime += r.SimTime.Seconds()
		delivered += r.Delivered
	}
	m["mac.attempts_per_pkt"] = float64(submitted) / float64(pkts)
	m["mac.fail_ratio"] = float64(drops) / float64(submitted)
	m["tcp.rtx_per_pkt"] = float64(rtx) / float64(pkts)
	m["tcp.window_pkts"] = window / float64(len(b.ref))
	m["aodv.false_failures_per_kpkt"] = float64(falseFail) / float64(pkts) * 1e3
	m["core.sim_s_per_kpkt"] = simTime / float64(delivered) * 1e3
	m["campaign.executed"] = float64(b.executed)
	m["campaign.store_hits"] = float64(b.storeHits)
	if m["store.bytes_per_entry"], err = b.bytesPerEntry(); err != nil {
		return err
	}

	largest := b.refCfgs[0].Scenario
	for _, c := range b.refCfgs {
		if len(c.Scenario.Nodes) > len(largest.Nodes) {
			largest = c.Scenario
		}
	}
	d, err := drive(largest.Nodes)
	if err != nil {
		return err
	}
	m["phy.events_per_frame"] = d.eventsPerFrame
	m["phy.ns_per_frame"] = d.nsPerFrame
	m["sim.ns_per_event"] = d.nsPerEvent
	m["sim.peak_pending"] = float64(d.peakPending)
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSS is the process's peak resident set in MB, from /proc.
func peakRSS() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
