package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"hwstar/internal/fault"
	"hwstar/internal/scan"
	"hwstar/internal/trace"
	"hwstar/internal/workload"
)

// TestRequestTracing drives a traced batch of scans plus a join and checks
// the span trees decompose each request's lifecycle: the root carries the
// op and terminal status, queue/batch-assembly/execute stages are present,
// and — the consistency contract — the stages' wall times sum to no more
// than the root's wall, which itself agrees with the latency the server
// reported for the request.
func TestRequestTracing(t *testing.T) {
	const clients = 8
	cols, _ := testRelation(20000)
	tr := trace.New(trace.Config{Capacity: 64, SampleEvery: 1})
	s := newServer(t, Options{QueueDepth: clients, MaxBatch: clients, Trace: tr})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}

	los := workload.UniformInts(91, clients, 9000)
	var wg sync.WaitGroup
	resps := make([]Response, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			resps[i], err = s.Submit(context.Background(), Request{
				Op:    OpScan,
				Table: "events",
				Query: scan.Query{FilterCol: 0, Lo: los[i], Hi: los[i] + 800, AggCol: 1},
			})
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	traces := tr.Snapshot()
	if len(traces) != clients {
		t.Fatalf("got %d traces, want %d", len(traces), clients)
	}
	var batchCycles float64
	for _, td := range traces {
		root := td.Root()
		if root.Name != "request:scan" {
			t.Fatalf("root span %q, want request:scan", root.Name)
		}
		status := ""
		for _, a := range root.Attrs {
			if a.Key == "status" {
				status = a.Value
			}
		}
		if status != "ok" {
			t.Fatalf("root status %q, want ok: %s", status, td.Render())
		}
		if root.Wall <= 0 {
			t.Fatalf("root span never ended: %s", td.Render())
		}
		// Lifecycle stages are disjoint sub-intervals of the request, so
		// their walls must sum to at most the root's wall.
		stages := td.SumWall("queue") + td.SumWall("batch-assembly") +
			td.SumWall("execute") + td.SumWall("retry-backoff")
		if stages > root.Wall {
			t.Fatalf("stage walls %v exceed root wall %v:\n%s", stages, root.Wall, td.Render())
		}
		if td.SumWall("queue") <= 0 {
			t.Fatalf("no queue span recorded:\n%s", td.Render())
		}
		if c := td.SumCycles("execute"); c <= 0 {
			t.Fatalf("execute span carries no simulated cycles:\n%s", td.Render())
		}
		batchCycles += td.SumCycles("execute")
	}
	// Execute cycles across the batch account the shared pass: the leader
	// carries the full makespan, the rest their amortized share, so the
	// total must be at least the per-request cost times the batch size.
	var respCycles float64
	for _, r := range resps {
		respCycles += r.SimCycles
	}
	if batchCycles < respCycles {
		t.Fatalf("trace execute cycles %.0f < reported cycles %.0f", batchCycles, respCycles)
	}

	// The queue-wait histogram and the queue spans measure the same
	// interval; both must exist for every admitted request, and the span
	// sum must be consistent with the recorded total (same events, sampled
	// nanoseconds apart).
	qw := s.Metrics().Histogram("serve.queue_wait_ms")
	if qw.Count() != clients {
		t.Fatalf("queue_wait_ms count %d, want %d", qw.Count(), clients)
	}
	var spanQueueMs float64
	for _, td := range traces {
		spanQueueMs += float64(td.SumWall("queue").Microseconds()) / 1000
	}
	histQueueMs := qw.Stats().Sum
	if diff := spanQueueMs - histQueueMs; diff < -50 || diff > 50 {
		t.Fatalf("queue spans sum %.3fms inconsistent with queue_wait_ms sum %.3fms", spanQueueMs, histQueueMs)
	}
	// Root walls agree with reported latency: the latency histogram and the
	// root spans bracket the same requests.
	lat := s.Metrics().Histogram("serve.latency_ms")
	var rootMs float64
	for _, td := range traces {
		rootMs += float64(td.Root().Wall.Microseconds()) / 1000
	}
	if diff := rootMs - lat.Stats().Sum; diff < -50 || diff > 50 {
		t.Fatalf("root span walls %.3fms inconsistent with latency_ms sum %.3fms", rootMs, lat.Stats().Sum)
	}
}

// TestTracingRecordsRetries arms a transient-fault injector and checks that
// a retried request's trace carries retry-backoff spans and annotations.
func TestTracingRecordsRetries(t *testing.T) {
	cols, _ := testRelation(20000)
	tr := trace.New(trace.Config{Capacity: 16, SampleEvery: 1})
	inj := fault.New(fault.Config{Seed: 5, TransientProb: 0.3})
	s := newServer(t, Options{
		QueueDepth: 4, MaxBatch: 1,
		Faults: inj, MaxRetries: 8, RetryBackoff: 50 * time.Microsecond,
		JitterSeed: 11, Trace: tr,
	})
	defer s.Close()
	if err := s.Register("events", cols); err != nil {
		t.Fatal(err)
	}
	// Submit until at least one retry has happened, bounded by patience.
	for i := 0; i < 50; i++ {
		_, _ = s.Submit(context.Background(), Request{
			Op: OpScan, Table: "events",
			Query: scan.Query{FilterCol: 0, Lo: 0, Hi: 5000, AggCol: 1},
		})
		if s.Metrics().Counters()["serve.retries"] > 0 {
			break
		}
	}
	if s.Metrics().Counters()["serve.retries"] == 0 {
		t.Skip("injector produced no retry in 50 requests")
	}
	var sawBackoff bool
	for _, td := range tr.Snapshot() {
		if td.SumWall("retry-backoff") > 0 {
			sawBackoff = true
			if len(td.Root().Events) == 0 {
				t.Fatalf("retried trace has no retry annotation:\n%s", td.Render())
			}
		}
	}
	if !sawBackoff {
		t.Fatal("retries recorded in metrics but no retry-backoff span in any trace")
	}
}

// TestJitterSeedDeterminism pins the backoff-jitter contract: an explicit
// JitterSeed reproduces the exact backoff sequence across servers, and the
// default derives per-server seeds so two servers do NOT draw identical
// jitter (the bug this guards against: a constant seed synchronized the
// retry storms of every server instance).
func TestJitterSeedDeterminism(t *testing.T) {
	seq := func(opts Options) []time.Duration {
		s := newServer(t, opts)
		defer s.Close()
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = s.backoff(i % 4)
		}
		return out
	}
	fixed := Options{MaxRetries: 2, RetryBackoff: 100 * time.Microsecond, JitterSeed: 42}
	a, b := seq(fixed), seq(fixed)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fixed seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	varied := Options{MaxRetries: 2, RetryBackoff: 100 * time.Microsecond}
	c, d := seq(varied), seq(varied)
	same := true
	for i := range c {
		if c[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("default seed produced identical jitter sequences: %v", c)
	}
}
