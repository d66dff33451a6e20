package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Clients = 8
	cfg.Requests = 3
	cfg.Rows = 1 << 14
	cfg.Queue = 64
	cfg.MaxBatch = 64
	return cfg
}

// engineModes are the two topologies build assembles; the mode-agnostic
// smokes run once per row.
var engineModes = []struct {
	name             string
	shards, replicas int
}{
	{"single", 0, 0},
	{"shards=3 replicas=2", 3, 2},
}

func TestRunScanMix(t *testing.T) {
	for _, mode := range engineModes {
		t.Run(mode.name, func(t *testing.T) { runScanMix(t, mode.shards, mode.replicas) })
	}
}

func runScanMix(t *testing.T, shards, replicas int) {
	cfg := smallConfig()
	cfg.Shards, cfg.Replicas = shards, replicas
	cfg.DataDir = t.TempDir()
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(cfg.Clients * cfg.Requests)
	if r.completed != total || r.rejected != 0 || r.deadlined != 0 {
		t.Fatalf("completed %d of %d (rejected %d, deadlined %d)", r.completed, total, r.rejected, r.deadlined)
	}
	if r.meanMcyc <= 0 {
		t.Fatalf("no modeled cost: %+v", r)
	}
	// Health is the same view in both topologies, so the lines built from it
	// are too: scan passes, and the manifest version Close left on disk.
	if r.health.VecPasses == 0 || r.health.StoreVersion == 0 {
		t.Fatalf("health: %d scan passes, manifest v%d", r.health.VecPasses, r.health.StoreVersion)
	}
	want := []string{"completed", "Mcycles/query", "scan passes", fmt.Sprintf("manifest v%d", r.health.StoreVersion)}
	if shards > 1 {
		// The batch histogram is a serve.* series, not a Health field: a
		// Router's registry carries only its own series (ROADMAP item 6).
		want = append(want, "cluster 3 shards x 2 replicas")
	} else {
		if r.batches == 0 || r.batchMax < 1 {
			t.Fatalf("no batches recorded: %+v", r)
		}
		want = append(want, "scan batches")
	}
	var sb strings.Builder
	r.print(&sb, cfg)
	for _, w := range want {
		if !strings.Contains(sb.String(), w) {
			t.Fatalf("report missing %q:\n%s", w, sb.String())
		}
	}
}

// TestRunVectorized checks the report's scan-pass line: every scan batch is
// one block-major pass, and each block visit has exactly one outcome.
func TestRunVectorized(t *testing.T) {
	cfg := smallConfig()
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.completed != int64(cfg.Clients*cfg.Requests) {
		t.Fatalf("run lost requests: %+v", r)
	}
	h := r.health
	if h.VecPasses != int64(r.batches) {
		t.Fatalf("%d passes for %d scan batches", h.VecPasses, r.batches)
	}
	if h.VecBlocksPruned+h.VecFastSums+h.VecBlocksScanned == 0 {
		t.Fatalf("no block outcomes recorded: %+v", h)
	}
	var sb strings.Builder
	r.print(&sb, cfg)
	if !strings.Contains(sb.String(), "scan passes") {
		t.Fatalf("report missing scan passes line:\n%s", sb.String())
	}
}

func TestRunMixedMix(t *testing.T) {
	cfg := smallConfig()
	cfg.Mix = "mixed"
	cfg.Deadline = Duration(time.Minute) // generous: nothing should miss it
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.completed != int64(cfg.Clients*cfg.Requests) {
		t.Fatalf("mixed run lost requests: %+v", r)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := smallConfig()
	cfg.Machine = "nope"
	if _, err := run(context.Background(), cfg); err == nil {
		t.Fatal("unknown machine should fail")
	}
	cfg = smallConfig()
	cfg.Mix = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown mix should fail validation")
	}
}

// TestRunWithFaults arms the injector with transient failures and panics and
// checks the resilient configuration still completes everything, with the
// health summary in the report.
func TestRunWithFaults(t *testing.T) {
	cfg := smallConfig()
	cfg.FaultSeed = 7
	cfg.TransientProb = 0.05
	cfg.PanicProb = 0.01
	cfg.Retries = 4
	cfg.Backoff = Duration(20 * time.Microsecond)
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.completed != int64(cfg.Clients*cfg.Requests) {
		t.Fatalf("faulty run lost requests: %+v", r)
	}
	var sb strings.Builder
	r.print(&sb, cfg)
	for _, want := range []string{"health", "faults injected:"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestRunInterrupted cancels the run context up front: clients must stop
// submitting, Close must still drain, and the report must say so.
func TestRunInterrupted(t *testing.T) {
	cfg := smallConfig()
	cfg.Requests = 100
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.interrupted {
		t.Fatalf("report not marked interrupted: %+v", r)
	}
	if r.completed != 0 {
		t.Fatalf("cancelled-before-start run completed %d requests", r.completed)
	}
	var sb strings.Builder
	r.print(&sb, cfg)
	if !strings.Contains(sb.String(), "interrupted") {
		t.Fatalf("report missing interruption notice:\n%s", sb.String())
	}
}

// TestClusterCheckpointInterval pins -checkpoint-interval behind a Router:
// every shard is built from the same options as the single server, so the
// background checkpointer runs on each node. Checkpoints must be counted
// while the engine is still open — Close flushes one regardless.
func TestClusterCheckpointInterval(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards, cfg.Replicas = 3, 2
	cfg.DataDir = t.TempDir()
	cfg.CheckpointInterval = Duration(5 * time.Millisecond)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.closeStores()
	defer b.Close()
	if err := b.Register("facts", [][]int64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); b.Health().Checkpoints == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint on any shard: -checkpoint-interval ignored in cluster mode")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
