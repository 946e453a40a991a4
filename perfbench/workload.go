package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"manetsim"
	"manetsim/internal/store"
)

// workloadNames are the benchmark's workloads, in report order.
var workloadNames = []string{"chain", "field", "sweep"}

// tally accumulates one measurement window.
type tally struct {
	rounds    int
	allocated uint64        // Go heap bytes allocated during the timed legs
	simDur    time.Duration // simulation legs: World runs, or the sweep's write pass
	simCPU    time.Duration // process CPU time during the simulation legs
	delivered int64
	runs      int64
	readDur   time.Duration // read legs, POST to /results fetched
	readCPU   time.Duration // process CPU time during the read legs
	served    int64
	requests  int64
	attempted int64
	failed    int64
	failures  []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// measured is the time the window has measured so far.
func (t *tally) measured() time.Duration { return t.simDur + t.readDur }

// bench is one set-up workload. Every round runs that round's inputs once
// (a simulation leg) and then serves their results from the store through
// a fresh Server (a read leg). chain and field run back to back on one
// World, single-threaded, and a campaign writes their results to the store
// untimed; sweep runs as a Campaign.Sweep with two workers, which persists
// as it goes.
type bench struct {
	name     string
	dir      string
	storeDir string
	sweep    func(round int) manetsim.Sweep
	world    *manetsim.World    // chain, field
	camp     *manetsim.Campaign // sweep
	workers  int
	lb       *loopback // shared by every set-up of the process

	// The first refRounds rounds, which every run measures, are the
	// reference: the digest and the exact counts come from their configs,
	// results and canonical JSON, and executed and storeHits count their
	// campaign work.
	refRounds           int
	refCfgs             []manetsim.Config
	ref                 []*manetsim.Result
	refJSON             [][]byte
	executed, storeHits int64
	// lastCfg and lastJSON are the window's last run, for rerunCheck.
	lastCfg  manetsim.Config
	lastJSON []byte
}

// setup builds a workload from its seed, keeping its store under the
// empty directory dir: the inputs, and the World or Campaign with one
// minimal-budget warm-up run per World.
func setup(name string, seed int64, dir string) (*bench, error) {
	b := &bench{name: name, dir: dir, storeDir: filepath.Join(dir, "store"), workers: 1, refRounds: refRounds[name]}
	if err := b.build(seed); err != nil {
		return nil, fmt.Errorf("set-up %s: %w", name, err)
	}
	return b, nil
}

func (b *bench) build(seed int64) error {
	switch b.name {
	case "chain", "field":
		b.sweep = chainInputs(seed)
		if b.name == "field" {
			b.sweep = fieldInputs(seed)
		}
		b.world = manetsim.NewWorld()
		if _, err := b.world.Run(warmup(expand(b.sweep(0))[0])); err != nil {
			return err
		}
	case "sweep":
		b.sweep = sweepInputs(seed)
		b.workers = 2
		if err := b.newCampaign(0); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q", b.name)
	}
	return nil
}

// newCampaign replaces the sweep's write campaign with a fresh one over
// the same store, with one warm-up run per worker to build both pooled
// arenas. The warm-up runs take round's seeds, so they are never store
// hits, which would build nothing.
func (b *bench) newCampaign(round int) error {
	b.camp = manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(b.workers), manetsim.WithStore(b.storeDir))
	warm := expand(b.sweep(round))[:b.workers]
	for i := range warm {
		warm[i] = warmup(warm[i])
	}
	_, err := b.camp.RunAll(context.Background(), warm)
	return err
}

// close removes the workload's files.
func (b *bench) close() error { return os.RemoveAll(b.dir) }

// measure runs rounds from round 0 until the window has measured d and at
// least atLeast rounds and the reference rounds are done; it returns how many
// rounds it ran.
func (b *bench) measure(d time.Duration, atLeast int, t *tally) (int, error) {
	n := 0
	for n == 0 || t.measured() < d || n < atLeast || n < b.refRounds {
		if err := b.round(n, t); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// untimed labels, in CPU profiles, the work a round does outside its
// timed legs: generating inputs, replacing the write campaign, checking
// outputs.
var untimed = pprof.WithLabels(context.Background(), pprof.Labels(untimedLabel, "1"))

// timed runs fn as a timed leg, unlabelled so that profile attribution
// counts it, and adds the heap bytes it allocated to t.
func (t *tally) timed(fn func()) time.Duration {
	pprof.SetGoroutineLabels(context.Background())
	defer pprof.SetGoroutineLabels(untimed)
	a0 := heapAllocated()
	start := time.Now()
	fn()
	d := time.Since(start)
	t.allocated += heapAllocated() - a0
	return d
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the Go heap bytes allocated since the process started.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// round runs one simulation leg and one read leg, timing each, and checks
// their outputs outside the timed parts. An error means the benchmark
// itself could not go on; failed operations are counted in t instead.
func (b *bench) round(r int, t *tally) error {
	pprof.SetGoroutineLabels(untimed)
	defer pprof.SetGoroutineLabels(context.Background())
	sw := b.sweep(r)
	cfgs := expand(sw)
	results := make([]*manetsim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var cells []manetsim.Cell
	var executed int64
	if b.camp != nil {
		// A campaign keeps every result it ran in memory. A fresh one
		// every campaignRounds rounds bounds the process's memory by
		// rounds, not by how many rounds a fast host fits in a window.
		if r > 0 && r%campaignRounds == 0 {
			if err := b.newCampaign(r); err != nil {
				return err
			}
		}
		executed = b.camp.Executed()
	}

	cpu0 := cpuTime()
	t.simDur += t.timed(func() {
		if b.world != nil {
			for i, cfg := range cfgs {
				results[i], errs[i] = b.world.Run(cfg)
			}
			return
		}
		var err error
		cells, err = b.camp.Sweep(context.Background(), sw)
		for i := range errs {
			errs[i] = err
		}
	})
	t.simCPU += cpuTime() - cpu0
	t.rounds++

	if b.camp != nil {
		k := 0
		for _, c := range cells {
			for _, res := range c.Runs {
				results[k] = res
				k++
			}
		}
		executed = b.camp.Executed() - executed
	}
	ok := true
	for i, res := range results {
		t.attempted++
		t.runs++
		switch {
		case errs[i] != nil:
			t.fail("run %d of round %d: %v", i, r, errs[i])
		case res == nil:
			t.fail("run %d of round %d: no result", i, r)
		case res.Truncated || res.Delivered < cfgs[i].TotalPackets:
			t.fail("run %d of round %d: delivered %d of %d packets", i, r, res.Delivered, cfgs[i].TotalPackets)
		default:
			t.delivered += res.Delivered
			continue
		}
		ok = false
	}
	if !ok {
		t.attempted++ // the read leg this round would have served
		t.fail("round %d: read leg skipped after failed runs", r)
		return nil
	}
	if b.camp != nil && executed != int64(len(cfgs)) {
		t.fail("round %d: write pass simulated %d of %d runs", r, executed, len(cfgs))
	}

	// Every run's canonical JSON is needed to check World results and for
	// the reference; otherwise the sweep's served cells are checked whole
	// and only the last run is kept for rerunCheck.
	ref := r < b.refRounds
	runs := results
	if b.world == nil && !ref {
		runs = results[len(results)-1:]
	}
	want := make([][]byte, len(runs))
	for i, res := range runs {
		raw, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("encoding result: %w", err)
		}
		want[i] = raw
	}
	if b.world != nil {
		t.attempted++
		if err := b.persist(cfgs, want); err != nil {
			t.fail("round %d: %v", r, err)
			return nil
		}
	}
	if ref {
		b.refCfgs = append(b.refCfgs, cfgs...)
		b.ref = append(b.ref, results...)
		b.refJSON = append(b.refJSON, want...)
		b.executed += executed
	}
	b.lastCfg, b.lastJSON = cfgs[len(cfgs)-1], want[len(want)-1]

	t.attempted++
	var rp readPass
	var err error
	t.timed(func() { rp, err = b.lb.serve(sw, b.storeDir) })
	if err != nil {
		t.fail("read leg of round %d: %v", r, err)
		return nil
	}
	t.readDur += rp.dur
	t.readCPU += rp.cpu
	t.served += int64(rp.runs)
	t.requests += requestsPerServe
	if ref {
		b.storeHits += int64(rp.runs) - rp.executed
		b.executed += rp.executed
	}
	switch {
	case rp.executed != 0:
		t.fail("read leg of round %d simulated %d runs", r, rp.executed)
	case rp.runs != len(cfgs):
		t.fail("read leg of round %d streamed %d of %d runs", r, rp.runs, len(cfgs))
	default:
		if err := sameCells(rp.cells, cells, want); err != nil {
			t.fail("read leg of round %d: %v", r, err)
		}
	}
	return nil
}

// persist has a campaign over the store run a round's World configs again,
// each on a fresh simulation, so that manetsim's own write path stores
// them for the read leg. It checks that the campaign simulated every run
// and that each re-run is byte-identical to its World result (raws).
func (b *bench) persist(cfgs []manetsim.Config, raws [][]byte) error {
	camp := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(2),
		manetsim.WithStore(b.storeDir), manetsim.WithoutArenaReuse())
	results, err := camp.RunAll(context.Background(), cfgs)
	if err != nil {
		return fmt.Errorf("writing the store: %w", err)
	}
	if n := camp.Executed(); n != int64(len(cfgs)) {
		return fmt.Errorf("writing the store simulated %d of %d runs", n, len(cfgs))
	}
	for i, res := range results {
		raw, err := json.Marshal(res)
		if err != nil || !bytes.Equal(raw, raws[i]) {
			return fmt.Errorf("run %d on a fresh simulation differs from its World result", i)
		}
	}
	return nil
}

// sameCells checks served /results cells against the simulation leg:
// the whole document against the direct Sweep cells where there are
// some, otherwise every run against its result's canonical JSON.
func sameCells(served json.RawMessage, direct []manetsim.Cell, runs [][]byte) error {
	if direct != nil {
		want, err := json.Marshal(direct)
		if err != nil {
			return err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, served); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("served cells differ from the direct Sweep cells")
		}
		return nil
	}
	var cells []struct{ Runs []json.RawMessage }
	if err := json.Unmarshal(served, &cells); err != nil {
		return err
	}
	k := 0
	for _, c := range cells {
		for _, raw := range c.Runs {
			var got bytes.Buffer
			if err := json.Compact(&got, raw); err != nil {
				return err
			}
			if k >= len(runs) || !bytes.Equal(got.Bytes(), runs[k]) {
				return fmt.Errorf("served run %d differs from its simulated result", k)
			}
			k++
		}
	}
	if k != len(runs) {
		return fmt.Errorf("served %d runs, want %d", k, len(runs))
	}
	return nil
}

// rerunCheck re-runs the last run of the window on a fresh simulation,
// outside any arena or campaign, and checks it is byte-identical to the
// result the window's reused arena produced.
func (b *bench) rerunCheck(t *tally) {
	t.attempted++
	res, err := manetsim.RunConfig(context.Background(), b.lastCfg)
	if err != nil {
		t.fail("fresh re-run: %v", err)
		return
	}
	raw, err := json.Marshal(res)
	if err != nil || !bytes.Equal(raw, b.lastJSON) {
		t.fail("fresh re-run of the window's last run differs from its arena result")
	}
}

// digest is the SHA-256 of the reference rounds' canonical results.
func (b *bench) digest() string {
	h := sha256.New()
	for _, raw := range b.refJSON {
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bytesPerEntry is the mean size of the reference rounds' store files.
func (b *bench) bytesPerEntry() (float64, error) {
	st, err := store.Open(b.storeDir, manetsim.ResultSchemaVersion)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, cfg := range b.refCfgs {
		fi, err := os.Stat(st.Path(cfg.CacheKey()))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return float64(total) / float64(len(b.refCfgs)), nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
