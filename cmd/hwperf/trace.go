package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hwstar"
)

// The traced pass records four nested spans per request, all in this
// package, around the calls into each layer (spans inside the product are
// ROADMAP item 3):
//
//	client.request   build the request, round trip, decode, verify
//	wire.roundtrip   http.Client.Do until the body is read to EOF
//	frontend.handle  an http.Handler around Frontend.Handler()
//	backend.submit   a FrontendBackend decorator around the Router/Server
//
// A layer's self time is its span minus its child: client, wire (loopback
// TCP plus net/http on both sides), frontend (auth, governance, v1 decode
// and encode), and the backend (shard + serve + scan).
var spanNames = [4]string{"client.request", "wire.roundtrip", "frontend.handle", "backend.submit"}

const (
	spanClient = iota
	spanWire
	spanFrontend
	spanBackend
)

// traceHeader carries the request's trace id from the client to the
// handler wrapper; the product ignores it.
const traceHeader = "X-Hwperf-Trace"

type traceKey struct{}

// span is one recorded interval. Spans of one request share Trace; ID is
// Trace*4 + the span's depth, so Parent (ID-1, or 0 for the root) always
// names a span of the same request.
type span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. Recording is sharded
// by trace id so client and server goroutines do not share one lock.
type tracer struct {
	epoch  time.Time
	seq    atomic.Int64
	shards [16]spanShard
}

type spanShard struct {
	mu    sync.Mutex
	spans []span
}

// newTracer starts a recorder whose clock is the run's epoch, the one the
// load generator stamps samples with.
func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// next allocates a trace id (from 1, so 0 can mean "no parent").
func (t *tracer) next() int64 { return t.seq.Add(1) }

func (t *tracer) add(trace int64, kind int, start, end int64) {
	s := span{Trace: trace, ID: trace*4 + int64(kind), Name: spanNames[kind], StartNs: start, EndNs: end}
	if kind > 0 {
		s.Parent = s.ID - 1
	}
	sh := &t.shards[trace%int64(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// all returns every recorded span. Call it after the load has stopped.
func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// wrapHandler records frontend.handle around next for requests carrying a
// trace id, and hands the id to the backend decorator through the context.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r) // session open: not a traced query
			return
		}
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, id)))
		t.add(id, spanFrontend, start, t.now())
	})
}

// tracedBackend records backend.submit around the real backend's Submit.
type tracedBackend struct {
	hwstar.FrontendBackend
	t *tracer
}

func (b tracedBackend) Submit(ctx context.Context, req hwstar.Request) (hwstar.Response, error) {
	id, ok := ctx.Value(traceKey{}).(int64)
	if !ok {
		return b.FrontendBackend.Submit(ctx, req)
	}
	start := b.t.now()
	resp, err := b.FrontendBackend.Submit(ctx, req)
	b.t.add(id, spanBackend, start, b.t.now())
	return resp, err
}

// selfTimes splits each complete request of spans into per-layer self
// times in ms, indexed by span kind. covered is the summed self time of
// complete requests, total the summed client.request wall of all requests:
// their ratio is trace.coverage_pct.
func selfTimes(spans []span) (self [4][]float64, backendNs float64, covered, total float64) {
	type rec struct {
		dur  [4]int64
		have [4]bool
	}
	byTrace := make(map[int64]*rec)
	for _, s := range spans {
		r := byTrace[s.Trace]
		if r == nil {
			r = &rec{}
			byTrace[s.Trace] = r
		}
		kind := int(s.ID - s.Trace*4)
		r.dur[kind] = s.EndNs - s.StartNs
		r.have[kind] = true
	}
	for _, r := range byTrace {
		if !r.have[spanClient] {
			continue
		}
		total += float64(r.dur[spanClient])
		if !(r.have[spanWire] && r.have[spanFrontend] && r.have[spanBackend]) {
			continue
		}
		for k := 0; k < 4; k++ {
			d := r.dur[k]
			if k < 3 {
				d -= r.dur[k+1]
			}
			if d < 0 {
				d = 0 // a child can outlast its parent only by clock granularity
			}
			self[k] = append(self[k], float64(d)/1e6)
			covered += float64(d)
		}
		backendNs += float64(r.dur[spanBackend])
	}
	return self, backendNs, covered, total
}

// writeTrace writes the spans to dir/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
