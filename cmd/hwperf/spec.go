package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
)

// workloadsJSON is the benchmark's own configuration: the tenant, the
// machine profile and, per workload, the product options as JSON. The
// options are applied with encoding/json onto hwstar.ServerOptions /
// hwstar.RouterOptions, not through Go field selectors, so a product PR
// that deletes an option (ROADMAP item 4 removes Options.Vectorized) does
// not break this package's build: the key is ignored and the workload runs
// the one path left.
//
//go:embed workloads.json
var workloadsJSON []byte

// suiteSpec is workloads.json.
type suiteSpec struct {
	Machine     string          `json:"machine"`
	Tenant      json.RawMessage `json:"tenant"`
	MaxClients  int             `json:"max_clients"`
	PoolQueries int             `json:"pool_queries"`
	Workloads   []workloadSpec  `json:"workloads"`
}

// workloadSpec is one workload of workloads.json.
type workloadSpec struct {
	Name    string          `json:"name"`
	Why     string          `json:"why"`
	Backend string          `json:"backend"` // "router" or "server"
	Router  json.RawMessage `json:"router,omitempty"`
	Server  json.RawMessage `json:"server,omitempty"`
	Durable bool            `json:"durable,omitempty"`

	// Scan workloads: one registered two-column table.
	Table     string `json:"table,omitempty"`
	Shape     string `json:"shape,omitempty"` // "clustered" or "uniform"
	Rows      int    `json:"rows,omitempty"`
	ScanWidth int64  `json:"scan_width,omitempty"`

	Ops []string `json:"ops"`

	// Inline workloads: sizes of the bodies and how many distinct bodies
	// of each kind the pool cycles through.
	JoinBuild    int `json:"join_build,omitempty"`
	JoinProbe    int `json:"join_probe,omitempty"`
	GroupRows    int `json:"group_rows,omitempty"`
	GroupKeys    int `json:"group_keys,omitempty"`
	InlineBodies int `json:"inline_bodies,omitempty"`
	LineitemRows int `json:"lineitem_rows,omitempty"`

	// Durable workloads: how many times the store copy is reopened.
	Restarts int `json:"restarts,omitempty"`
}

func loadSuite() (suiteSpec, error) {
	var s suiteSpec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return s, fmt.Errorf("hwperf: workloads.json: %w", err)
	}
	return s, nil
}

func (s suiteSpec) workload(name string) (workloadSpec, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("hwperf: unknown workload %q", name)
}

// clients is the closed-loop client count: one caller per core, capped.
func (s suiteSpec) clients() int {
	n := runtime.NumCPU()
	if n > s.MaxClients {
		n = s.MaxClients
	}
	if n < 1 {
		n = 1
	}
	return n
}

// metricDef declares one metric of BENCHMARK.json. Bound is set on
// end-to-end metrics only and left out of the file where it is 0.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the gated metrics, each with the share of the parent's
// median by which it may worsen. Every one is non-zero on every workload
// (the driver's rule) and agrees with itself from run to run on this shared
// 2-core host, whatever the host's neighbours do. The issue's other eight
// do not and are reported under perLayer, ungated, as the issue prescribes:
// throughput_qps, latency_p50_ms, latency_p95_ms and cpu_ms_per_query follow
// the host's contention and not the code (README.md has the spreads);
// error_rate is expected to be 0; the remaining three exist only on
// durable_churn.
var endToEnd = []metricDef{
	{"alloc_kb_per_query", "KB", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the diagnostic metrics of the traced pass: span self times,
// product counters and single-caller probes of each layer's public
// functions. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"throughput_qps", "1/s", higher, 0},
	{"latency_p50_ms", "ms", lower, 0},
	{"latency_p95_ms", "ms", lower, 0},
	{"error_rate", "ratio", lower, 0},
	{"cpu_ms_per_query", "ms", lower, 0},
	{"checkpoint_mb_per_s", "MB/s", higher, 0},
	{"recovery_ms", "ms", lower, 0},
	{"stored_bytes_per_user_byte", "ratio", lower, 0},

	{"wire.self_ms_p50", "ms", lower, 0},
	{"wire.request_bytes_per_query", "bytes", lower, 0},

	{"frontend.self_ms_p50", "ms", lower, 0},
	{"frontend.self_ms_p95", "ms", lower, 0},
	{"frontend.probe_ns_per_op", "ns", lower, 0},
	{"frontend.probe_allocs_per_op", "count", lower, 0},
	{"frontend.refused", "count", lower, 0},

	{"v1.decode_ns_per_op", "ns", lower, 0},
	{"v1.decode_allocs_per_op", "count", lower, 0},
	{"v1.encode_ns_per_op", "ns", lower, 0},

	{"shard.submit_ms_p50", "ms", lower, 0},
	{"shard.submit_ms_p95", "ms", lower, 0},
	{"shard.overhead_ms_p50", "ms", lower, 0},
	{"shard.dispatches_per_query", "count", lower, 0},
	{"shard.hedge_rate", "ratio", lower, 0},
	{"shard.hedge_win_rate", "ratio", higher, 0},
	{"shard.failovers", "count", lower, 0},
	{"shard.partials", "count", lower, 0},

	{"serve.submit_ms_p50", "ms", lower, 0},
	{"serve.queue_wait_ms_p50", "ms", lower, 0},
	{"serve.batch_size_mean", "count", higher, 0},
	{"serve.passes_per_query", "count", lower, 0},
	{"serve.rejected", "count", lower, 0},
	{"serve.shed", "count", lower, 0},
	{"serve.retries", "count", lower, 0},
	{"serve.failed", "count", lower, 0},
	{"serve.register_ms", "ms", lower, 0},

	{"compress.blocks_pruned_per_query", "count", higher, 0},
	{"compress.blocks_fast_summed_per_query", "count", higher, 0},
	{"compress.blocks_decoded_per_query", "count", lower, 0},
	{"compress.decode_fraction", "ratio", lower, 0},
	{"compress.select_ns_per_block", "ns", lower, 0},
	{"compress.prune_ns_per_block", "ns", lower, 0},
	{"compress.encode_mb_per_s", "MB/s", higher, 0},
	{"compress.ratio", "ratio", higher, 0},

	{"scan.row_pass_ns_per_row", "ns", lower, 0},

	{"store.checkpoint_ms_mean", "ms", lower, 0},
	{"store.checkpoint_ms_max", "ms", lower, 0},
	{"store.checkpoint_bytes", "bytes", lower, 0},
	{"store.segments_per_checkpoint", "count", lower, 0},
	{"store.open_ms_mean", "ms", lower, 0},
	{"store.recovery_bytes_validated", "bytes", lower, 0},
	{"store.recovery_fallbacks", "count", lower, 0},
	{"store.read_stall_ms_p95", "ms", lower, 0},

	{"hw.sim_mcycles_per_query", "Mcyc", lower, 0},
	{"hw.wall_ns_per_sim_cycle", "ns", lower, 0},

	{"client.latency_p99_ms", "ms", lower, 0},
	{"client.self_ms_p50", "ms", lower, 0},

	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_pause_ms_total", "ms", lower, 0},
	{"runtime.goroutines_peak", "count", lower, 0},
	{"runtime.heap_live_mb", "MB", lower, 0},

	{"trace.overhead_pct", "%", lower, 0},
	{"trace.coverage_pct", "%", higher, 0},
}

// runSeconds is BENCHMARK.json's run_seconds: the measuring time of one
// driver run. The issue's 3 s + 5 x 6 s does not fit the driver's cap of
// 3420 s for 92 runs with their set-up, so the windows are shortened and
// their number kept.
const runSeconds = 24

// benchmarkDoc is BENCHMARK.json: exactly the keys the driver accepts.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // Bound is 0 there, so omitted
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// at the repo root and the program cannot drift (the smoke test compares
// them).
func benchmarkJSON(s suiteSpec) ([]byte, error) {
	doc := benchmarkDoc{
		Command:    []string{"go", "run", "./cmd/hwperf"},
		Paths:      []string{"cmd/hwperf"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range s.Workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
