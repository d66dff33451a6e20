package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"hwstar"
	"hwstar/internal/compress"
	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/metrics"
	"hwstar/internal/scan"
	"hwstar/internal/vecexec"
)

// The probes replay pool queries from one caller straight into each
// layer's public functions, after the load has stopped. They give ns/op
// and allocs/op per layer on the workload's own inputs; each loop stops at
// probeOps operations or at its share of the time budget, whichever comes
// first, so an 11 ms scan does not take 11 s.

// probeLoop calls fn for pool entries 0, 1, ... and returns how many calls
// it made, the total time and the mallocs per call.
func probeLoop(pool []query, maxOps int, budget time.Duration, fn func(q *query) error) (ops int, elapsed time.Duration, allocsPerOp float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for ops < maxOps && (ops == 0 || time.Since(start) < budget) {
		if err := fn(&pool[ops%len(pool)]); err != nil {
			return ops, time.Since(start), 0, err
		}
		ops++
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return ops, elapsed, float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

// stubBackend answers every Submit with a canned response for the op, so
// the frontend probe times auth, governance, v1 decode/encode and nothing
// behind them.
type stubBackend struct {
	reg    *metrics.Registry
	canned map[hwstar.ServerOp]hwstar.Response
}

func (b *stubBackend) Submit(_ context.Context, req hwstar.Request) (hwstar.Response, error) {
	return b.canned[req.Op], nil
}
func (b *stubBackend) Health() hwstar.ServerHealth                { return hwstar.ServerHealth{State: "ok"} }
func (b *stubBackend) TenantHealth(string) hwstar.TenantHealth    { return hwstar.TenantHealth{} }
func (b *stubBackend) Workers() int                               { return 1 }
func (b *stubBackend) Metrics() *metrics.Registry                 { return b.reg }
func (b *stubBackend) SetTenantMemCap(tenant string, bytes int64) {}

// cannedResponses builds, per op in the pool, the response a correct
// backend would give the first query of that op.
func cannedResponses(pool []query) map[hwstar.ServerOp]hwstar.Response {
	out := make(map[hwstar.ServerOp]hwstar.Response)
	for i := range pool {
		q := &pool[i]
		op := hwstar.ServerOp(q.op)
		if _, done := out[op]; done {
			continue
		}
		r := hwstar.Response{BatchSize: 1}
		r.SimCycles = 1e5
		switch q.op {
		case "scan":
			r.Sum = q.want[0]
		case "join":
			r.Matches, r.Checksum = q.inline.matches, q.inline.checksum
		case "group-sum":
			r.Groups = q.inline.groups
		case "q6":
			r.Revenue = q.inline.revenue
		}
		out[op] = r
	}
	return out
}

// probeFrontend times Frontend.Handler() against the stub backend, called
// directly (no socket): frontend.probe_ns_per_op and _allocs_per_op.
func (s *stack) probeFrontend(maxOps int, budget time.Duration, r *result) error {
	stub := &stubBackend{reg: metrics.NewRegistry(), canned: cannedResponses(s.pool)}
	fe, err := hwstar.NewFrontend(hwstar.FrontendConfig{
		Backend:   stub,
		Tenants:   []hwstar.TenantConfig{s.tenant},
		Lineitems: s.lineitem,
	})
	if err != nil {
		return err
	}
	h := fe.Handler()
	body, err := json.Marshal(v1.SessionRequest{Tenant: s.tenant.ID, Key: s.tenant.Key})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/session", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("hwperf: frontend probe session: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var sess v1.SessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
		return fmt.Errorf("hwperf: frontend probe session: %w", err)
	}
	auth := "Bearer " + sess.Token

	ops, elapsed, allocs, err := probeLoop(s.pool, maxOps, budget, func(q *query) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(q.body))
		req.Header.Set("Authorization", auth)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("hwperf: frontend probe: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("frontend.probe_ns_per_op", float64(elapsed.Nanoseconds())/float64(ops))
	r.set("frontend.probe_allocs_per_op", allocs)
	return nil
}

// probeV1 times the wire seam alone: strict JSON decode + ToServe of the
// workload's bodies, and ResponseFrom + JSON encode of a correct answer.
func (s *stack) probeV1(maxOps int, budget time.Duration, r *result) error {
	ops, elapsed, allocs, err := probeLoop(s.pool, maxOps, budget, func(q *query) error {
		_, _, err := decodeV1(q.body)
		return err
	})
	if err != nil {
		return err
	}
	r.set("v1.decode_ns_per_op", float64(elapsed.Nanoseconds())/float64(ops))
	r.set("v1.decode_allocs_per_op", allocs)

	canned := cannedResponses(s.pool)
	ops, elapsed, _, err = probeLoop(s.pool, maxOps, budget, func(q *query) error {
		wire := v1.QueryRequest{Op: q.op}
		resp := v1.ResponseFrom(&wire, s.tenant.ID, "interactive", 1, canned[hwstar.ServerOp(q.op)])
		return json.NewEncoder(io.Discard).Encode(resp)
	})
	if err != nil {
		return err
	}
	r.set("v1.encode_ns_per_op", float64(elapsed.Nanoseconds())/float64(ops))
	return nil
}

// decodeV1 decodes a body the way the frontend does and maps it onto the
// engine's request type.
func decodeV1(body []byte) (v1.QueryRequest, hwstar.Request, error) {
	var wire v1.QueryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return wire, hwstar.Request{}, err
	}
	req, err := wire.ToServe()
	return wire, req, err
}

// engineRequest is a pool entry as the frontend would hand it to Submit.
func (s *stack) engineRequest(q *query) (hwstar.Request, error) {
	wire, req, err := decodeV1(q.body)
	if err != nil {
		return req, err
	}
	req.Tenant = s.tenant.ID
	if li, ok := s.lineitem[wire.Table]; ok {
		req.Lineitem = li
	}
	return req, nil
}

// checkEngine verifies an in-process answer with the wire check, by way of
// the same mapping the frontend uses.
func (q *query) checkEngine(resp hwstar.Response) string {
	wire := v1.QueryRequest{Op: q.op}
	out := v1.ResponseFrom(&wire, "", "", 0, resp)
	return q.check(&out)
}

// probeSubmit times in-process Submit calls from one caller: the backend
// as the frontend sees it (shard.* for a router) and one identically
// configured server holding one stripe of the table (serve.*). Their p50
// difference is the router's overhead budget. Answers are verified where
// the callee holds the whole table.
func (s *stack) probeSubmit(ctx context.Context, maxOps int, budget time.Duration, r *result) error {
	timeSubmits := func(b hwstar.FrontendBackend, verify bool) ([]float64, error) {
		var lat []float64
		_, _, _, err := probeLoop(s.pool, maxOps, budget, func(q *query) error {
			req, err := s.engineRequest(q)
			if err != nil {
				return err
			}
			start := time.Now()
			resp, err := b.Submit(ctx, req)
			lat = append(lat, ms(time.Since(start)))
			if err != nil {
				return err
			}
			if verify {
				r.verified("probe", q.checkEngine(resp))
			}
			return nil
		})
		sort.Float64s(lat)
		return lat, err
	}

	whole, err := timeSubmits(s.backend, true)
	if err != nil {
		return err
	}
	if s.router == nil {
		// A single server is its own serve probe; there is no shard tier.
		r.set("serve.submit_ms_p50", quantile(whole, 0.5))
		r.set("serve.queue_wait_ms_p50", s.server.Metrics().Histogram("serve.queue_wait_ms").Quantile(0.5))
		return nil
	}

	one, err := hwstar.NewServer(s.machine, s.srvOpts)
	if err != nil {
		return err
	}
	defer one.Close()
	if s.spec.Table != "" {
		rows, err := s.stripeRows()
		if err != nil {
			return err
		}
		stripe := make([][]int64, len(s.versions[0]))
		for c, col := range s.versions[0] {
			stripe[c] = col[:rows]
		}
		if err := one.Register(s.spec.Table, stripe); err != nil {
			return err
		}
	}
	single, err := timeSubmits(one, false)
	if err != nil {
		return err
	}
	r.set("serve.submit_ms_p50", quantile(single, 0.5))
	r.set("serve.queue_wait_ms_p50", one.Metrics().Histogram("serve.queue_wait_ms").Quantile(0.5))
	r.set("shard.overhead_ms_p50", quantile(whole, 0.5)-quantile(single, 0.5))
	return nil
}

// probeScan times the two scan paths on the workload's own columns and
// queries, outside the serving layers: the compressed block primitives the
// vectorized path is built from, split by zone-map outcome, and the row
// clock-scan of internal/scan (ROADMAP item 4's host-time pair).
func (s *stack) probeScan(maxOps int, budget time.Duration, r *result) error {
	cols := s.versions[0]
	rows := len(cols[0])

	start := time.Now()
	enc := []*compress.Compressed{compress.Encode(cols[0]), compress.Encode(cols[1])}
	encodeS := time.Since(start).Seconds()
	var raw, packed int64
	for _, c := range enc {
		raw += c.RawBytes()
		packed += c.Bytes()
	}
	r.set("compress.encode_mb_per_s", float64(raw)/1e6/encodeS)
	r.set("compress.ratio", float64(raw)/float64(packed))

	// Classify each query's blocks by zone map first, then time the
	// straddling ones (payload decoded) and the rest (pruned or summed from
	// the header) in separate loops, so neither pays for a clock read per
	// block.
	fcol, acol := enc[0], enc[1]
	var buf [compress.BlockValues]int64
	sel := make(vecexec.Sel, 0, compress.BlockValues)
	var straddle, skip []int
	var selectNs, pruneNs time.Duration
	var selected, pruned int
	_, _, _, err := probeLoop(s.pool, maxOps, budget, func(q *query) error {
		straddle, skip = straddle[:0], skip[:0]
		for b := 0; b < fcol.NumBlocks(); b++ {
			bmin, bmax := fcol.BlockRange(b)
			if bmin > q.hi || bmax < q.lo || (bmin >= q.lo && bmax <= q.hi) {
				skip = append(skip, b)
			} else {
				straddle = append(straddle, b)
			}
		}
		var sum int64
		for pass, blocks := range [][]int{straddle, skip} {
			t0 := time.Now()
			for _, b := range blocks {
				var all bool
				sel, all, _ = vecexec.RangeFilterCompressed(fcol, b, q.lo, q.hi, buf[:], sel[:0])
				switch {
				case all:
					part, _ := vecexec.SumCompressed(acol, b, nil, buf[:])
					sum += part
				case len(sel) > 0:
					part, _ := vecexec.SumCompressed(acol, b, sel, buf[:])
					sum += part
				}
			}
			if pass == 0 {
				selectNs += time.Since(t0)
				selected += len(blocks)
			} else {
				pruneNs += time.Since(t0)
				pruned += len(blocks)
			}
		}
		r.verified("probe: compressed scan", q.checkSum(sum))
		return nil
	})
	if err != nil {
		return err
	}
	if selected > 0 {
		r.set("compress.select_ns_per_block", float64(selectNs.Nanoseconds())/float64(selected))
	}
	if pruned > 0 {
		r.set("compress.prune_ns_per_block", float64(pruneNs.Nanoseconds())/float64(pruned))
	}

	rel, err := scan.NewRelation(cols)
	if err != nil {
		return err
	}
	ops, elapsed, _, err := probeLoop(s.pool, maxOps, budget, func(q *query) error {
		sums, err := scan.Shared(rel, []scan.Query{{FilterCol: 0, Lo: q.lo, Hi: q.hi, AggCol: 1}},
			scan.SharedOptions{UseQueryIndex: true}, nil)
		if err != nil {
			return err
		}
		r.verified("probe: row scan", q.checkSum(sums[0]))
		return nil
	})
	if err != nil {
		return err
	}
	r.set("scan.row_pass_ns_per_row", float64(elapsed.Nanoseconds())/(float64(ops)*float64(rows)))
	return nil
}

// runProbes runs every probe that applies to the workload. budget is the
// time each loop may take.
func (s *stack) runProbes(ctx context.Context, maxOps int, budget time.Duration, r *result) error {
	if err := s.probeFrontend(maxOps, budget, r); err != nil {
		return err
	}
	if err := s.probeV1(maxOps, budget, r); err != nil {
		return err
	}
	if err := s.probeSubmit(ctx, maxOps, budget, r); err != nil {
		return err
	}
	if s.spec.Table != "" {
		return s.probeScan(maxOps, budget, r)
	}
	return nil
}
