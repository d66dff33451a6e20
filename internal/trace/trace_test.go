package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("req")
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	// Every method must no-op on a nil span.
	c := sp.Child("queue")
	c.AddCycles(10)
	c.SetAttr("k", "v")
	c.Annotate("event %d", 1)
	c.End()
	sp.End()
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", got)
	}
}

func TestSpanTreeRecorded(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("request:scan")
	q := root.Child("queue")
	time.Sleep(time.Millisecond)
	q.End()
	ex := root.Child("execute")
	ex.AddCycles(2e6)
	cs := ex.Child("clock-scan")
	cs.AddCycles(1.5e6)
	cs.End()
	ex.SetAttr("batch", "4")
	ex.End()
	root.Annotate("retry %d", 1)
	root.End()

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	td := traces[0]
	if len(td.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(td.Spans))
	}
	if td.Root().Name != "request:scan" || td.Root().Parent != -1 {
		t.Fatalf("bad root: %+v", td.Root())
	}
	if td.SumWall("queue") < time.Millisecond {
		t.Fatalf("queue wall = %v, want >= 1ms", td.SumWall("queue"))
	}
	if got := td.SumCycles("execute"); got != 2e6 {
		t.Fatalf("execute cycles = %f, want 2e6", got)
	}
	if got := td.SumCycles("clock-scan"); got != 1.5e6 {
		t.Fatalf("clock-scan cycles = %f, want 1.5e6", got)
	}
	if len(td.Spans[0].Events) != 1 || td.Spans[0].Events[0] != "retry 1" {
		t.Fatalf("root events = %v", td.Spans[0].Events)
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 3})
	var sampled int
	for i := 0; i < 9; i++ {
		if sp := tr.Start("r"); sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 with SampleEvery=3, want 3", sampled)
	}
	if got := len(tr.Snapshot()); got != 3 {
		t.Fatalf("snapshot has %d traces, want 3", got)
	}
}

func TestRingBounded(t *testing.T) {
	tr := New(Config{Capacity: 4})
	for i := 0; i < 20; i++ {
		tr.Start("r").End()
	}
	traces := tr.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(traces))
	}
	// Oldest-first ordering: the survivors are the last four traces started.
	if traces[0].ID != 17 || traces[3].ID != 20 {
		t.Fatalf("ring ids = %d..%d, want 17..20", traces[0].ID, traces[3].ID)
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(Config{MaxSpans: 4})
	root := tr.Start("r")
	var kept int
	for i := 0; i < 10; i++ {
		if c := root.Child("c"); c != nil {
			kept++
			c.End()
		}
	}
	root.End()
	if kept != 3 { // root takes one slot
		t.Fatalf("kept %d children with MaxSpans=4, want 3", kept)
	}
	if _, dropped := tr.Started(); dropped != 7 {
		t.Fatalf("dropped = %d, want 7", dropped)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != nil {
		t.Fatal("empty context must yield nil span")
	}
	// A nil span leaves the context untouched.
	if got := NewContext(ctx, nil); got != ctx {
		t.Fatal("nil span must not wrap the context")
	}
	tr := New(Config{})
	sp := tr.Start("r")
	ctx = NewContext(ctx, sp)
	if got := FromContext(ctx); got != sp {
		t.Fatal("span lost in context round-trip")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Config{})
	sp := tr.Start("r")
	sp.End()
	sp.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("double End published %d traces, want 1", got)
	}
}

func TestRender(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("request:scan")
	ex := root.Child("execute")
	ex.AddCycles(3e6)
	ex.End()
	root.Annotate("retry 1")
	root.End()
	out := tr.Snapshot()[0].Render()
	for _, want := range []string{"request:scan", "  execute", "sim=3.000Mcyc", "! retry 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{Capacity: 64, MaxSpans: 4096})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.Start("r")
				for j := 0; j < 4; j++ {
					c := root.Child("phase")
					c.AddCycles(1)
					c.Annotate("e")
					c.End()
				}
				root.End()
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("ring has %d traces, want 64", got)
	}
}
