package main

// The benchmark's contract in one place: workload names, metric names with
// unit, direction and regression bound, and the frozen open-loop rates.
// BENCHMARK.json at the repository root is this file printed by -manifest;
// the smoke test fails if the two disagree or if a workload emits a metric
// that is not listed here (or omits one that is).

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

const (
	serveReadHot    = "serve_read_hot"
	serveTxnDurable = "serve_txn_durable"
	embedCompose    = "embed_compose"
	embedShardedMix = "embed_sharded_mix"
)

// drivers is the number of load-generating goroutines (and loopback
// connections) every workload uses: one per CPU of the 2-vCPU reference box,
// so the generator never oversubscribes the machine it shares with the
// system under test.
const drivers = 2

// runSeconds is the measured length of one run the driver asks for.
const runSeconds = 24

var spec = manifest{
	Command:    []string{"go", "run", "-C", "benchmark", "medley/benchmark"},
	Paths:      []string{"benchmark"},
	RunSeconds: runSeconds,
	Workloads: []workloadSpec{
		{serveReadHot, "95% Get / 5% Put, Zipf 1.1 over 64Ki keys through the loopback server on medley-sharded: wire, queue, batch scheduler, read lane, snapshot tier; commit path 5%, persistence idle"},
		{serveTxnDurable, "100% four-op transfer Txn over 256Ki accounts on txmontage-sharded: same server, no read lane; latch, linked MCNS commit, MVCC stamp, montage flush, pnvm; ends in crash and recovery"},
		{embedCompose, "paper section 6.1 microbenchmark (2:1:1, 1-10 ops, 1M-key hash map) on medley as a library: isolates core and structures; server, sharding, persistence do nothing; the paper's 2.2x cost"},
		{embedShardedMix, "medley-sharded as a library: 50% un-hinted cross-shard transfers (discovery restarts, footprint cache, latch fallback) beside 50% snapshot reads (version publish, chain GC); no wire, no persistence"},
	},
	EndToEnd: []metricSpec{
		{"setup_s", "s", "lower", 0.25},
		{"tput_per_s", "1/s", "higher", 0.25},
		{"heap_live_mb", "MB", "lower", 0.12},
		{"alloc_b_op", "B", "lower", 0.05},
	},
	PerLayer: []metricSpec{
		{"server.rtt_d1_us", "us", "lower", 0},
		{"server.wire_ns_op", "ns", "lower", 0},
		{"server.wire_allocs_op", "count", "lower", 0},
		{"server.transport_ns_op", "ns", "lower", 0},
		{"server.lane_share", "ratio", "higher", 0},
		{"server.combined_share", "ratio", "higher", 0},
		{"server.batch_fill", "count", "higher", 0},
		{"server.shed_share", "ratio", "lower", 0},
		{"server.lat_p50_us_r1", "us", "lower", 0},
		{"server.lat_p99_us_r1", "us", "lower", 0},
		{"server.lat_p50_us_r2", "us", "lower", 0},
		{"server.lat_p99_us_r2", "us", "lower", 0},
		{"server.lat_p50_us_r3", "us", "lower", 0},
		{"server.lat_p99_us_r3", "us", "lower", 0},
		{"server.backlog_end_r3", "count", "lower", 0},
		{"server.rate_ok_per_s", "1/s", "higher", 0},
		{"txengine.call_p50_us", "us", "lower", 0},
		{"txengine.call_tail_us", "us", "lower", 0},
		{"txengine.exec_ns_op", "ns", "lower", 0},
		{"txengine.allocs_op", "count", "lower", 0},
		{"txengine.snap_read_ns", "ns", "lower", 0},
		{"txengine.shard_overhead_x", "ratio", "lower", 0},
		{"txengine.abort_share", "ratio", "lower", 0},
		{"txengine.xrestart_share", "ratio", "lower", 0},
		{"txengine.fp_hit_share", "ratio", "higher", 0},
		{"txengine.latch_wait_share", "ratio", "lower", 0},
		{"txengine.latch_fallback_share", "ratio", "lower", 0},
		{"txengine.snap_stale_share", "ratio", "lower", 0},
		{"core.commit_ns_op", "ns", "lower", 0},
		{"core.allocs_op", "count", "lower", 0},
		{"core.abort_share", "ratio", "lower", 0},
		{"core.tx_overhead_x", "ratio", "lower", 0},
		{"structures.op_ns", "ns", "lower", 0},
		{"montage.sync_ms_p50", "ms", "lower", 0},
		{"montage.sync_ms_max", "ms", "lower", 0},
		{"montage.sync_busy_share", "ratio", "lower", 0},
		{"montage.records_per_sync", "count", "lower", 0},
		{"montage.recover_s", "s", "lower", 0},
		{"montage.recover_ns_rec", "ns", "lower", 0},
		{"pnvm.writes_per_commit", "count", "lower", 0},
		{"pnvm.writebacks_per_commit", "count", "lower", 0},
		{"pnvm.fences_per_s", "1/s", "lower", 0},
		{"pnvm.live_per_key", "ratio", "lower", 0},
		{"pnvm.write_ns", "ns", "lower", 0},
		{"pnvm.writes_per_commit_1c", "count", "lower", 0},
		{"chaos.disarmed_hit_ns", "ns", "lower", 0},
		{"bench.ref_ns_op", "ns", "lower", 0},
		{"bench.gen_lag_p99_us", "us", "lower", 0},
		{"bench.rungs_on_time", "count", "higher", 0},
		{"bench.gc_cpu_share", "ratio", "lower", 0},
		{"bench.gc_cycles_per_s", "1/s", "lower", 0},
		{"bench.trace_overhead_share", "ratio", "lower", 0},
	},
}

// ladder holds the open-loop rates (requests per second, both connections
// together) of the serving workloads: 25/50/75% of the open-loop capacity a
// rate sweep with this harness found on the 2-vCPU reference box (README,
// "Rates": about 500k req/s and 24k txn/s; the depth-256 closed loop reads
// two to three times that, because it hands the server 256-request batches an
// open loop never forms). Rounded to two digits and frozen: a later change is
// judged at the same offered load, not at a load that moves with it.
var ladder = map[string][3]int{
	serveReadHot:    {130_000, 250_000, 380_000},
	serveTxnDurable: {6_000, 12_000, 18_000},
}

// latLimitUs is the limit on a ladder rung's 99th-percentile latency it must meet to
// count towards server.rate_ok_per_s.
var latLimitUs = map[string]float64{
	serveReadHot:    10_000,
	serveTxnDurable: 25_000,
}

func specOf(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
