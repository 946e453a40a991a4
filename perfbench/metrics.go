package main

// metric describes one reported figure. BENCHMARK.json lists the same
// names, units, directions and bounds; metrics_test.go keeps the two in
// step.
type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the untraced run's metrics; every workload reports all of
// them (see README.md for what each means on each workload).
var endToEnd = []metric{
	{Name: "pkts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "replicates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "stored_runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB/round", Better: "lower", Bound: 0.1},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// selfLayers are the layers reported as <layer>.self_us_per_op.
var selfLayers = layers[:len(layers)-1]

// perLayer are the traced run's metrics.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range selfLayers {
		ms = append(ms, metric{Name: l + ".self_us_per_op", Unit: "us/op", Better: "lower"})
	}
	return append(ms, []metric{
		{Name: "other.share", Unit: "ratio", Better: "lower"},
		{Name: "runtime.gc_share", Unit: "ratio", Better: "lower"},
		{Name: "trace.overhead", Unit: "ratio", Better: "higher"},
		{Name: "core.build_ms_per_run", Unit: "ms/run", Better: "lower"},
		{Name: "campaign.store_get_ms", Unit: "ms/op", Better: "lower"},
		{Name: "campaign.store_put_ms", Unit: "ms/op", Better: "lower"},
		{Name: "serve.request_ms", Unit: "ms/request", Better: "lower"},
		{Name: "campaign.worker_util", Unit: "ratio", Better: "higher"},
		{Name: "mac.attempts_per_pkt", Unit: "frames/pkt", Better: "lower"},
		{Name: "mac.fail_ratio", Unit: "ratio", Better: "lower"},
		{Name: "tcp.rtx_per_pkt", Unit: "rtx/pkt", Better: "lower"},
		{Name: "tcp.window_pkts", Unit: "pkts", Better: "higher"},
		{Name: "aodv.false_failures_per_kpkt", Unit: "1/kpkt", Better: "lower"},
		{Name: "core.sim_s_per_kpkt", Unit: "s/kpkt", Better: "lower"},
		{Name: "campaign.executed", Unit: "count", Better: "lower"},
		{Name: "campaign.store_hits", Unit: "count", Better: "higher"},
		{Name: "store.bytes_per_entry", Unit: "bytes", Better: "lower"},
		{Name: "phy.events_per_frame", Unit: "events/frame", Better: "lower"},
		{Name: "phy.ns_per_frame", Unit: "ns/frame", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns/event", Better: "lower"},
		{Name: "sim.peak_pending", Unit: "events", Better: "lower"},
	}...)
}()

// Entry points whose inclusive time the traced run reports.
const (
	entryStoreGet = "manetsim.(*Campaign).storeGet"
	entryStorePut = "manetsim.(*Campaign).storePut"
	entryServe    = "manetsim.(*Server).ServeHTTP"
	entryBuild    = "manetsim/internal/core.(*scenarioState).build"
)

var entries = []string{entryStoreGet, entryStorePut, entryServe, entryBuild}
