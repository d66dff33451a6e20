package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	v1 "hwstar/internal/frontend/v1"
)

// sample is one request as the closed-loop client saw it, in ns since the
// run's epoch.
type sample struct {
	start, end int64
	ok         bool
}

// window is one timed interval of closed-loop load.
type window struct {
	start     int64         // ns since the run's epoch
	scheduled time.Duration // the clients stop sending after this long
	elapsed   time.Duration // until the last answer was in
	samples   []sample
	attempted int
	failed    int
	problems  []string // the first few failures, printed with their query

	simCycles float64 // summed wire cost.sim_cycles of correct answers
	batchSum  int64   // summed wire cost.batch_size of correct answers
	reqBytes  int64   // request body bytes sent

	cpu        time.Duration // process user+sys over the window
	allocBytes uint64        // MemStats.TotalAlloc delta
	gcCycles   uint32
	gcPauseNs  uint64
}

func (w *window) correct() int { return w.attempted - w.failed }

// qps is correct responses per second.
func (w *window) qps() float64 { return float64(w.correct()) / w.elapsed.Seconds() }

// latenciesMs returns the sorted latencies of the correct responses.
func (w *window) latenciesMs() []float64 {
	out := make([]float64, 0, len(w.samples))
	for _, s := range w.samples {
		if s.ok {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// quiet cuts the window as scheduled into slices of the given length by
// when each correct response arrived, keeps the share of the slices with
// the most responses (at least one slice) and returns those slices'
// responses per second and sorted latencies in ms. The requests in flight
// at the deadline end after the last slice and belong to none.
func (w *window) quiet(length time.Duration, share float64) (qps float64, latMs []float64) {
	n := int(w.scheduled / length)
	if n < 1 {
		n, length = 1, w.scheduled
	}
	bySlice := make([][]float64, n)
	for _, s := range w.samples {
		if k := (s.end - w.start) / length.Nanoseconds(); s.ok && k >= 0 && k < int64(n) {
			bySlice[k] = append(bySlice[k], float64(s.end-s.start)/1e6)
		}
	}
	sort.SliceStable(bySlice, func(i, j int) bool { return len(bySlice[i]) > len(bySlice[j]) })
	keep := int(math.Round(share * float64(n)))
	if keep < 1 {
		keep = 1
	}
	for _, s := range bySlice[:keep] {
		latMs = append(latMs, s...)
	}
	sort.Float64s(latMs)
	return float64(len(latMs)) / (float64(keep) * length.Seconds()), latMs
}

// loadClient is a client plus its place in the pool. Each client walks its
// own stretch of the pool in order, across windows, so the request
// sequence depends only on the seed and the client count.
type loadClient struct {
	*client
	cursor int
}

func newLoadClients(clients []*client, poolLen int) []*loadClient {
	out := make([]*loadClient, len(clients))
	for i, c := range clients {
		out[i] = &loadClient{client: c, cursor: i * poolLen / len(clients)}
	}
	return out
}

// runWindow drives every client in a closed loop for dur: each sends its
// next request only after the previous answer is verified. tr, when
// non-nil, records client.request and wire.roundtrip spans and tags the
// request so the traced endpoint records the server-side ones.
func runWindow(ctx context.Context, epoch time.Time, clients []*loadClient, pool []query, dur time.Duration, tr *tracer) window {
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF

	parts := make([]window, len(clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *loadClient, part *window) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q := &pool[c.cursor%len(pool)]
				c.cursor++
				c.issue(ctx, epoch, q, tr, part)
			}
		}(c, &parts[i])
	}
	wg.Wait()
	w := window{start: start.Sub(epoch).Nanoseconds(), scheduled: dur, elapsed: time.Since(start)}

	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	w.cpu = rusageCPU(&ru1) - rusageCPU(&ru0)
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs

	for i := range parts {
		p := &parts[i]
		w.samples = append(w.samples, p.samples...)
		w.attempted += p.attempted
		w.failed += p.failed
		w.simCycles += p.simCycles
		w.batchSum += p.batchSum
		w.reqBytes += p.reqBytes
		if len(w.problems) < maxProblems {
			w.problems = append(w.problems, p.problems...)
		}
	}
	return w
}

// maxProblems bounds how many failures a window keeps for printing.
const maxProblems = 8

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// issue sends one query, verifies the answer against the oracle and
// records the sample into part. A transport error, a non-200 status, a
// wrong answer and a partial answer all count as failures.
func (c *loadClient) issue(ctx context.Context, epoch time.Time, q *query, tr *tracer, part *window) {
	var trace int64
	if tr != nil {
		trace = tr.next()
	}
	t0 := time.Since(epoch).Nanoseconds()
	var wire0, wire1 int64
	problem := func() string {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(q.body))
		if err != nil {
			return err.Error()
		}
		req.Header.Set("Authorization", "Bearer "+c.token)
		req.Header.Set("Content-Type", "application/json")
		if tr != nil {
			req.Header.Set(traceHeader, strconv.FormatInt(trace, 10))
		}
		wire0 = time.Since(epoch).Nanoseconds()
		resp, err := c.http.Do(req)
		if err != nil {
			return err.Error()
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		wire1 = time.Since(epoch).Nanoseconds()
		if err != nil {
			return err.Error()
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(raw))
		}
		var out v1.QueryResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return err.Error()
		}
		if bad := q.check(&out); bad != "" {
			return bad
		}
		part.simCycles += out.Cost.SimCycles
		part.batchSum += int64(out.Cost.BatchSize)
		return ""
	}()
	t1 := time.Since(epoch).Nanoseconds()

	part.attempted++
	part.reqBytes += int64(len(q.body))
	part.samples = append(part.samples, sample{start: t0, end: t1, ok: problem == ""})
	if problem != "" {
		part.failed++
		if len(part.problems) < maxProblems {
			part.problems = append(part.problems, fmt.Sprintf("op=%s: %s", q.op, problem))
		}
	}
	if tr != nil {
		// The tracer's epoch is the run's epoch, so the two clocks agree.
		tr.add(trace, spanClient, t0, t1)
		if wire1 > 0 {
			tr.add(trace, spanWire, wire0, wire1)
		}
	}
}

// quantile returns the q-quantile of sorted (nearest rank), 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
