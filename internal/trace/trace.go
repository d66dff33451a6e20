// Package trace is hwstar's query-lifecycle observability layer: per-request
// span trees that attribute both wall time and simulated cycles to the stages
// a request passes through (admit → queue → batch assembly → dispatch →
// per-morsel execute → retry/degrade).
//
// The keynote's demand for "strict performance engineering principles"
// against the hardware is impossible to satisfy blind: tuning needs
// measurement that attributes cost to causes (McKenney's first rule). The
// serving layer (PR 1) and the resilience layer (PR 2) added behaviour —
// shared-scan batching, retries, straggler re-dispatch — whose cost shows up
// only in the tail; spans are how that tail is decomposed into queueing,
// batching, execution, and recovery components.
//
// Design constraints, in order:
//
//   - Zero cost when off. A nil *Tracer and a nil *Span are valid receivers
//     for every method; call sites never branch on "is tracing enabled".
//   - Bounded memory always. Completed traces live in a fixed-capacity ring
//     (old traces are overwritten), and each trace caps its span count;
//     sustained serving load cannot grow the heap.
//   - Both clocks. Every span carries wall time (what the client felt) and
//     simulated cycles (what the modeled machine paid); the two decompose
//     differently and both matter.
//
// A Tracer samples: every SampleEvery-th Start call records a trace, the
// rest return nil spans that no-op through the whole request path.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Tracer. The zero value is usable: capacity 256 traces,
// 512 spans per trace, every trace sampled.
type Config struct {
	// Capacity is the number of completed traces the ring retains; older
	// traces are overwritten. Default 256.
	Capacity int
	// MaxSpans caps the spans recorded per trace; Child calls beyond the cap
	// return nil spans and are counted in Dropped. Default 512.
	MaxSpans int
	// SampleEvery records every Nth started trace (1 = all, the default).
	SampleEvery int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	return c
}

// Tracer creates and retains traces. All methods are safe for concurrent use
// and safe on a nil receiver (every operation no-ops).
type Tracer struct {
	cfg Config

	started atomic.Uint64 // Start calls, sampled or not
	dropped atomic.Uint64 // spans dropped by MaxSpans

	mu   sync.Mutex
	ring []*liveTrace // completed traces, ring-ordered
	next int          // ring write cursor
	n    int          // filled entries
}

// New returns a Tracer with the given config.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, ring: make([]*liveTrace, cfg.Capacity)}
}

// liveTrace is a trace under construction. Spans append under the trace lock;
// once the root ends the trace is published to the ring and never mutated
// again (the serving pipeline ends all children before the root).
type liveTrace struct {
	id    uint64
	tr    *Tracer
	mu    sync.Mutex
	spans []*Span
}

// Span is one stage of a trace. Fields are written through methods while the
// trace is live; read them from SpanData snapshots, not from live spans.
type Span struct {
	lt     *liveTrace
	id     int32
	parent int32 // -1 for the root

	name   string
	start  time.Time
	wall   time.Duration
	cycles float64
	bytes  int64
	attrs  []Attr
	events []string
	ended  bool
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key, Value string
}

// Start begins a new trace rooted at a span with the given name. It returns
// nil — a fully usable no-op span — when the tracer is nil or this trace
// falls outside the sampling rate.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	n := t.started.Add(1)
	if (n-1)%uint64(t.cfg.SampleEvery) != 0 {
		return nil
	}
	lt := &liveTrace{id: n, tr: t}
	root := &Span{lt: lt, id: 0, parent: -1, name: name, start: time.Now()}
	lt.spans = append(lt.spans, root)
	return root
}

// Started returns the number of Start calls (sampled or not) and the number
// of spans dropped by per-trace caps.
func (t *Tracer) Started() (started, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	return t.started.Load(), t.dropped.Load()
}

// publish places a completed trace in the ring, overwriting the oldest.
func (t *Tracer) publish(lt *liveTrace) {
	t.mu.Lock()
	t.ring[t.next] = lt
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Child starts a sub-span under s. Nil-safe: a nil parent returns a nil
// child. Children beyond the trace's MaxSpans cap are dropped (counted on
// the tracer) so span floods cannot grow memory.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	lt := s.lt
	lt.mu.Lock()
	if len(lt.spans) >= lt.tr.cfg.MaxSpans {
		lt.mu.Unlock()
		lt.tr.dropped.Add(1)
		return nil
	}
	c := &Span{lt: lt, id: int32(len(lt.spans)), parent: s.id, name: name, start: time.Now()}
	lt.spans = append(lt.spans, c)
	lt.mu.Unlock()
	return c
}

// AddCycles attributes simulated cycles to the span.
func (s *Span) AddCycles(c float64) {
	if s == nil {
		return
	}
	s.lt.mu.Lock()
	s.cycles += c
	s.lt.mu.Unlock()
}

// AddBytes attributes simulated memory bytes to the span — the peak operator
// state a governed request charged against its reservation, plus any spill
// traffic. Traces then show WHERE a request's footprint went, the way
// AddCycles shows where its time went.
func (s *Span) AddBytes(n int64) {
	if s == nil {
		return
	}
	s.lt.mu.Lock()
	s.bytes += n
	s.lt.mu.Unlock()
}

// SetAttr attaches a key=value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.lt.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.lt.mu.Unlock()
}

// Annotate appends a formatted event to the span (fault firings, retries).
func (s *Span) Annotate(format string, args ...any) {
	if s == nil {
		return
	}
	ev := fmt.Sprintf(format, args...)
	s.lt.mu.Lock()
	s.events = append(s.events, ev)
	s.lt.mu.Unlock()
}

// Event appends a pre-built event string to the span: Annotate without the
// formatting, for call sites inside allocation-policed loops that assemble
// the message with strconv instead of boxing through fmt.
func (s *Span) Event(ev string) {
	if s == nil {
		return
	}
	s.lt.mu.Lock()
	s.events = append(s.events, ev)
	s.lt.mu.Unlock()
}

// End completes the span, fixing its wall duration. Ending the root span
// publishes the whole trace to the tracer's ring; End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	lt := s.lt
	lt.mu.Lock()
	if s.ended {
		lt.mu.Unlock()
		return
	}
	s.ended = true
	s.wall = time.Since(s.start)
	root := s.parent == -1
	lt.mu.Unlock()
	if root {
		lt.tr.publish(lt)
	}
}

// SpanData is an immutable snapshot of one span.
type SpanData struct {
	// ID is the span's index within its trace; Parent is the parent span's
	// ID, -1 for the root.
	ID, Parent int
	// Name identifies the stage ("request:scan", "queue", "execute", ...).
	Name string
	// Start is the wall-clock start; Wall the duration (0 if never ended).
	Start time.Time
	Wall  time.Duration
	// Cycles is the simulated-machine cost attributed to this span.
	Cycles float64
	// Bytes is the simulated memory footprint attributed to this span (0
	// for ungoverned requests).
	Bytes int64
	// Attrs and Events carry annotations recorded on the span.
	Attrs  []Attr
	Events []string
}

// TraceData is an immutable snapshot of one completed trace. Spans[0] is the
// root; Spans[i].ID == i.
type TraceData struct {
	ID    uint64
	Spans []SpanData
}

// Snapshot copies the completed traces out of the ring, oldest first.
func (t *Tracer) Snapshot() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	lts := make([]*liveTrace, 0, t.n)
	for i := 0; i < t.n; i++ {
		idx := (t.next - t.n + i + len(t.ring)) % len(t.ring)
		lts = append(lts, t.ring[idx])
	}
	t.mu.Unlock()

	out := make([]TraceData, 0, len(lts))
	for _, lt := range lts {
		out = append(out, lt.snapshot())
	}
	return out
}

func (lt *liveTrace) snapshot() TraceData {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	td := TraceData{ID: lt.id, Spans: make([]SpanData, len(lt.spans))}
	for i, s := range lt.spans {
		td.Spans[i] = SpanData{
			ID:     int(s.id),
			Parent: int(s.parent),
			Name:   s.name,
			Start:  s.start,
			Wall:   s.wall,
			Cycles: s.cycles,
			Bytes:  s.bytes,
			Attrs:  append([]Attr(nil), s.attrs...),
			Events: append([]string(nil), s.events...),
		}
	}
	return td
}

// Root returns the trace's root span.
func (td TraceData) Root() SpanData {
	if len(td.Spans) == 0 {
		return SpanData{}
	}
	return td.Spans[0]
}

// SumWall totals the wall time of spans with the given name.
func (td TraceData) SumWall(name string) time.Duration {
	var sum time.Duration
	for _, s := range td.Spans {
		if s.Name == name {
			sum += s.Wall
		}
	}
	return sum
}

// SumCycles totals the simulated cycles of spans with the given name.
func (td TraceData) SumCycles(name string) float64 {
	var sum float64
	for _, s := range td.Spans {
		if s.Name == name {
			sum += s.Cycles
		}
	}
	return sum
}

// Render formats the trace as an indented span tree with wall milliseconds,
// simulated megacycles, attributes, and events — the -trace dump format.
func (td TraceData) Render() string {
	children := make(map[int][]int, len(td.Spans))
	for _, s := range td.Spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for _, c := range children {
		sort.Ints(c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d\n", td.ID)
	var walk func(id, depth int)
	walk = func(id, depth int) {
		s := td.Spans[id]
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s  wall=%.3fms", indent, s.Name, float64(s.Wall.Microseconds())/1000)
		if s.Cycles > 0 {
			fmt.Fprintf(&b, " sim=%.3fMcyc", s.Cycles/1e6)
		}
		if s.Bytes > 0 {
			fmt.Fprintf(&b, " mem=%.1fKiB", float64(s.Bytes)/1024)
		}
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, ev := range s.Events {
			fmt.Fprintf(&b, "%s  ! %s\n", indent, ev)
		}
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	if len(td.Spans) > 0 {
		walk(0, 0)
	}
	return b.String()
}
