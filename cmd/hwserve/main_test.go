package main

import (
	"context"
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
	cfg.Window = Duration(time.Millisecond)
	return cfg
}

func TestRunScanMix(t *testing.T) {
	cfg := smallConfig()
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(cfg.Clients * cfg.Requests)
	if r.completed != total || r.rejected != 0 || r.deadlined != 0 {
		t.Fatalf("completed %d of %d (rejected %d, deadlined %d)", r.completed, total, r.rejected, r.deadlined)
	}
	if r.batches == 0 || r.batchMax < 1 {
		t.Fatalf("no batches recorded: %+v", r)
	}
	if r.meanMcyc <= 0 {
		t.Fatalf("no modeled cost: %+v", r)
	}
	var sb strings.Builder
	r.print(&sb, cfg)
	for _, want := range []string{"completed", "scan batches", "Mcycles/query"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
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
