// Package v1 is the frozen wire protocol of the hwstar network frontend.
//
// Every struct here is a versioned DTO: JSON tags are stable, fields are only
// ever added (never renamed or retyped), and nothing in internal/serve leaks
// through directly. The mapping functions (ToServe, ResponseFrom) are the
// single seam between wire and engine — internal refactors of serve.Request
// or serve.Response must update the mapping, not the wire format, so clients
// built against v1 keep working.
//
// The error side of the contract lives in errors.go: a closed table of
// machine-readable codes, each tied to an HTTP status and a retryability
// hint, derived from the sentinel taxonomy in internal/errs.
package v1

import (
	"fmt"
	"strconv"

	"hwstar/internal/agg"
	"hwstar/internal/errs"
	"hwstar/internal/join"
	"hwstar/internal/queries"
	"hwstar/internal/scan"
	"hwstar/internal/serve"
)

// Op names accepted on the wire. They deliberately mirror serve's op
// identifiers today, but the two sets version independently.
const (
	OpScan     = "scan"
	OpJoin     = "join"
	OpGroupSum = "group-sum"
	OpQ1       = "q1"
	OpQ6       = "q6"
)

// Priority class names accepted on the wire.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// SessionRequest opens a session: POST /v1/session.
type SessionRequest struct {
	// Tenant is the tenant id to authenticate as.
	Tenant string `json:"tenant"`
	// Key is the tenant's configured API key.
	Key string `json:"key"`
}

// SessionResponse carries the bearer token for subsequent requests.
type SessionResponse struct {
	Token  string `json:"token"`
	Tenant string `json:"tenant"`
	// ExpiresUnixMs is the token's expiry as Unix epoch milliseconds.
	ExpiresUnixMs int64 `json:"expires_unix_ms"`
	// Priority is the tenant's default priority class.
	Priority string `json:"priority"`
}

// QueryRequest is one query: POST /v1/query with Authorization: Bearer <token>.
// Exactly the fields for the named op need to be set; the rest are ignored.
type QueryRequest struct {
	// Op selects the operation: scan | join | group-sum | q1 | q6.
	Op string `json:"op"`
	// Priority overrides the tenant's default class for this request
	// (interactive | batch). Empty uses the tenant default.
	Priority string `json:"priority,omitempty"`
	// TraceID is an optional client-chosen id echoed in the response and
	// attached to the server-side trace span.
	TraceID string `json:"trace_id,omitempty"`

	// Table names a server-registered relation (op=scan) or lineitem table
	// (op=q1, op=q6).
	Table string `json:"table,omitempty"`
	// Scan parameterizes op=scan against Table.
	Scan *ScanArgs `json:"scan,omitempty"`
	// Join carries inline build/probe columns for op=join.
	Join *JoinArgs `json:"join,omitempty"`
	// GroupSum carries inline key/value columns for op=group-sum.
	GroupSum *GroupSumArgs `json:"group_sum,omitempty"`
	// Engine selects the execution model for op=q1/q6
	// (volcano | vectorized | fused). Empty defaults to fused.
	Engine string `json:"engine,omitempty"`
}

// ScanArgs is a range-filter SUM: SELECT SUM(col[agg_col]) WHERE
// lo <= col[filter_col] <= hi.
type ScanArgs struct {
	FilterCol int   `json:"filter_col"`
	Lo        int64 `json:"lo"`
	Hi        int64 `json:"hi"`
	AggCol    int   `json:"agg_col"`
}

// JoinArgs is an equi-join over inline columns.
type JoinArgs struct {
	BuildKeys []int64 `json:"build_keys"`
	BuildVals []int64 `json:"build_vals"`
	ProbeKeys []int64 `json:"probe_keys"`
	ProbeVals []int64 `json:"probe_vals"`
	// Algorithm: npo | radix; empty or "auto" lets the server choose from its
	// modeled cache hierarchy.
	Algorithm string `json:"algorithm,omitempty"`
}

// GroupSumArgs is SUM(vals) GROUP BY keys over inline columns.
type GroupSumArgs struct {
	Keys []int64 `json:"keys"`
	Vals []int64 `json:"vals"`
	// Strategy: global-atomic | local-merge | radix-partitioned; empty
	// defaults to local-merge.
	Strategy string `json:"strategy,omitempty"`
}

// QueryResponse is the success body of POST /v1/query.
type QueryResponse struct {
	Op       string `json:"op"`
	Tenant   string `json:"tenant"`
	Priority string `json:"priority"`
	// TraceID echoes the request's trace id (or carries a server-assigned
	// one) for joining against /debug/traces span trees.
	TraceID string    `json:"trace_id,omitempty"`
	Cost    CostInfo  `json:"cost"`
	Spill   SpillInfo `json:"spill"`
	Result  Result    `json:"result"`
	// Partial marks a sharded deployment's answer that covers only the
	// surviving fraction of the data: every replica of some range was down,
	// and the result is exact over CoveredFraction of the rows rather than
	// silently wrong over all of them. Single-server deployments never set
	// it. Partial responses are HTTP 200 — the body is a usable (flagged)
	// answer, not an error.
	Partial bool `json:"partial,omitempty"`
	// CoveredFraction is the fraction of rows the answer covers, in (0,1]
	// when Partial is set.
	CoveredFraction float64 `json:"covered_fraction,omitempty"`
}

// CostInfo prices the query on both clocks: simulated machine cycles and
// wall time, plus the batch the request shared.
type CostInfo struct {
	SimCycles float64 `json:"sim_cycles"`
	WallMs    float64 `json:"wall_ms"`
	BatchSize int     `json:"batch_size"`
}

// SpillInfo reports memory-governance degradation.
type SpillInfo struct {
	Spilled bool  `json:"spilled"`
	Bytes   int64 `json:"bytes"`
}

// Result carries the op-specific payload; only the fields for the request's
// op are meaningful.
type Result struct {
	// Sum is the scan aggregate (op=scan).
	Sum int64 `json:"sum"`
	// Matches counts join output rows; Checksum is the join checksum in hex
	// (a string keeps the uint64 exact in JSON) — op=join.
	Matches  int64  `json:"matches,omitempty"`
	Checksum string `json:"checksum,omitempty"`
	// Groups maps group key (decimal string) to sum (op=group-sum).
	Groups map[string]int64 `json:"groups,omitempty"`
	// Q1Rows is the grouped aggregate output (op=q1).
	Q1Rows []Q1Row `json:"q1_rows,omitempty"`
	// Revenue is the Q6 aggregate (op=q6).
	Revenue float64 `json:"revenue,omitempty"`
}

// Q1Row is one output group of the Q1-shaped query.
type Q1Row struct {
	ReturnFlag   string  `json:"return_flag"`
	LineStatus   string  `json:"line_status"`
	SumQty       float64 `json:"sum_qty"`
	SumPrice     float64 `json:"sum_price"`
	SumDiscPrice float64 `json:"sum_disc_price"`
	SumCharge    float64 `json:"sum_charge"`
	AvgQty       float64 `json:"avg_qty"`
	AvgPrice     float64 `json:"avg_price"`
	AvgDisc      float64 `json:"avg_disc"`
	Count        int64   `json:"count"`
}

// ToServe maps the wire request onto an internal serve.Request. It validates
// everything expressible at the wire layer (op names, priority classes,
// algorithm/strategy/engine identifiers, args presence); table-name
// resolution (Table, and the lineitem for q1/q6) is the frontend's job, so
// the returned request carries Table and a nil Lineitem.
func (q *QueryRequest) ToServe() (serve.Request, error) {
	var req serve.Request
	switch q.Priority {
	case "", PriorityInteractive:
		req.Priority = serve.PriorityInteractive
	case PriorityBatch:
		req.Priority = serve.PriorityBatch
	default:
		return req, fmt.Errorf("v1: unknown priority %q: %w", q.Priority, errs.ErrInvalidInput)
	}
	req.TraceID = q.TraceID

	switch q.Op {
	case OpScan:
		req.Op = serve.OpScan
		if q.Table == "" || q.Scan == nil {
			return req, fmt.Errorf("v1: op=scan needs table and scan args: %w", errs.ErrInvalidInput)
		}
		req.Table = q.Table
		req.Query = scan.Query{FilterCol: q.Scan.FilterCol, Lo: q.Scan.Lo, Hi: q.Scan.Hi, AggCol: q.Scan.AggCol}
	case OpJoin:
		req.Op = serve.OpJoin
		if q.Join == nil {
			return req, fmt.Errorf("v1: op=join needs join args: %w", errs.ErrInvalidInput)
		}
		switch q.Join.Algorithm {
		case "", "auto":
			req.Algorithm = "auto"
		case string(join.AlgNPO), string(join.AlgRadix):
			req.Algorithm = join.Algorithm(q.Join.Algorithm)
		default:
			return req, fmt.Errorf("v1: unknown join algorithm %q: %w", q.Join.Algorithm, errs.ErrInvalidInput)
		}
		req.Join = join.Input{
			BuildKeys: q.Join.BuildKeys, BuildVals: q.Join.BuildVals,
			ProbeKeys: q.Join.ProbeKeys, ProbeVals: q.Join.ProbeVals,
		}
	case OpGroupSum:
		req.Op = serve.OpGroupSum
		if q.GroupSum == nil {
			return req, fmt.Errorf("v1: op=group-sum needs group_sum args: %w", errs.ErrInvalidInput)
		}
		switch q.GroupSum.Strategy {
		case "":
			req.Strategy = agg.StrategyLocalMerge
		case string(agg.StrategyGlobal), string(agg.StrategyLocalMerge), string(agg.StrategyRadix):
			req.Strategy = agg.Strategy(q.GroupSum.Strategy)
		default:
			return req, fmt.Errorf("v1: unknown aggregation strategy %q: %w", q.GroupSum.Strategy, errs.ErrInvalidInput)
		}
		req.Keys, req.Vals = q.GroupSum.Keys, q.GroupSum.Vals
	case OpQ1, OpQ6:
		if q.Op == OpQ1 {
			req.Op = serve.OpQ1
		} else {
			req.Op = serve.OpQ6
		}
		if q.Table == "" {
			return req, fmt.Errorf("v1: op=%s needs a lineitem table name: %w", q.Op, errs.ErrInvalidInput)
		}
		req.Table = q.Table
		switch q.Engine {
		case "":
			req.Engine = queries.EngineFused
		case string(queries.EngineVolcano), string(queries.EngineVectorized), string(queries.EngineFused):
			req.Engine = queries.Engine(q.Engine)
		default:
			return req, fmt.Errorf("v1: unknown engine %q: %w", q.Engine, errs.ErrInvalidInput)
		}
	default:
		return req, fmt.Errorf("v1: unknown op %q: %w", q.Op, errs.ErrInvalidInput)
	}
	return req, nil
}

// ResponseFrom maps an internal serve.Response back onto the wire, stamping
// the request identity (op, tenant, priority, trace id) and wall time.
func ResponseFrom(q *QueryRequest, tenant, priority string, wallMs float64, resp serve.Response) QueryResponse {
	out := QueryResponse{
		Op:       q.Op,
		Tenant:   tenant,
		Priority: priority,
		TraceID:  q.TraceID,
		Cost:     CostInfo{SimCycles: resp.SimCycles, WallMs: wallMs, BatchSize: resp.BatchSize},
		Spill:    SpillInfo{Spilled: resp.Spilled, Bytes: resp.SpillBytes},
		Partial:  resp.Partial,
	}
	if resp.Partial {
		out.CoveredFraction = resp.CoveredFraction
	}
	switch q.Op {
	case OpScan:
		out.Result.Sum = resp.Sum
	case OpJoin:
		out.Result.Matches = resp.Matches
		out.Result.Checksum = hex16(resp.Checksum)
	case OpGroupSum:
		out.Result.Groups = make(map[string]int64, len(resp.Groups))
		for k, v := range resp.Groups {
			out.Result.Groups[strconv.FormatInt(k, 10)] = v
		}
	case OpQ1:
		out.Result.Q1Rows = make([]Q1Row, len(resp.Q1Rows))
		for i, r := range resp.Q1Rows {
			out.Result.Q1Rows[i] = Q1Row{
				ReturnFlag: r.ReturnFlag, LineStatus: r.LineStatus,
				SumQty: r.SumQty, SumPrice: r.SumPrice, SumDiscPrice: r.SumDiscPrice,
				SumCharge: r.SumCharge, AvgQty: r.AvgQty, AvgPrice: r.AvgPrice,
				AvgDisc: r.AvgDisc, Count: r.Count,
			}
		}
	case OpQ6:
		out.Result.Revenue = resp.Revenue
	}
	return out
}

// hex16 is fmt.Sprintf("%016x", v) without the boxing and format parse.
func hex16(v uint64) string { return string(appendHex16(make([]byte, 0, 16), v)) }

// appendHex16 appends v as sixteen lower-case hex digits.
func appendHex16(dst []byte, v uint64) []byte {
	var buf [16]byte
	digits := strconv.AppendUint(buf[:0], v, 16)
	dst = append(dst, "0000000000000000"[len(digits):]...)
	return append(dst, digits...)
}

// HealthResponse is the body of GET /v1/health.
type HealthResponse struct {
	// Status is "ok", "degraded" (a cluster node is dead), or "closed"
	// (server shutting down).
	Status string `json:"status"`
	// Queue and workers.
	QueueDepth int `json:"queue_depth"`
	Workers    int `json:"workers"`
	// Admission totals, summed over the tenant ledgers: each query once,
	// behind a router too. Shed counts memory-pressure sheds (the server
	// sheds for no other reason).
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	// Memory budget position (zero when ungoverned).
	MemInUseBytes  int64 `json:"mem_in_use_bytes"`
	MemBudgetBytes int64 `json:"mem_budget_bytes"`
	// Durability (all zero/absent when the server runs memory-only).
	// Durable reports a durable store is armed. StoreVersion is the last
	// committed manifest version; RecoveredTables how many tables recovery
	// found; RecoveryFallbacks how many corrupt manifest versions recovery
	// skipped past. Checkpoints and CheckpointFailures count
	// background/shutdown flushes. Every stored table is resident, so
	// RecoveredHot always equals RecoveredTables and ColdLoads is always 0;
	// both stay only because the v1 wire is frozen.
	Durable            bool   `json:"durable,omitempty"`
	StoreVersion       uint64 `json:"store_version,omitempty"`
	RecoveredTables    int    `json:"recovered_tables,omitempty"`
	RecoveredHot       int    `json:"recovered_hot,omitempty"`
	RecoveryFallbacks  int    `json:"recovery_fallbacks,omitempty"`
	Checkpoints        int64  `json:"checkpoints,omitempty"`
	CheckpointFailures int64  `json:"checkpoint_failures,omitempty"`
	ColdLoads          int64  `json:"cold_loads,omitempty"`
	// Tenants holds every configured tenant with a non-zero count.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's ledger, served standalone from
// GET /v1/tenants/{id}/stats and embedded in HealthResponse. The frontend
// counts each of the tenant's queries once, by the code the tenant got.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Outcome counters; Admitted is Completed + Failed + DeadlineExceeded.
	// Shed is always 0; it stays because the v1 wire is frozen
	// (memory-pressure sheds are MemShed).
	Admitted         int64 `json:"admitted"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	Rejected         int64 `json:"rejected"`
	Shed             int64 `json:"shed"`
	MemShed          int64 `json:"mem_shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Spills           int64 `json:"spills"`
	SpillBytes       int64 `json:"spill_bytes"`
	// Frontend-side governance counters.
	RateLimited   int64 `json:"rate_limited"`
	QuotaRejected int64 `json:"quota_rejected"`
	InFlight      int64 `json:"in_flight"`
	Sessions      int64 `json:"sessions"`
	// Latency quantiles in milliseconds (wall time at the frontend,
	// completed queries).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	// Bytes the engine holds for the tenant now, and its configured cap
	// (zero when uncapped).
	MemInUseBytes int64 `json:"mem_in_use_bytes"`
	MemCapBytes   int64 `json:"mem_cap_bytes"`
}

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo describes one failure in machine-readable form.
type ErrorInfo struct {
	// Code is one of the Code* constants in this package.
	Code string `json:"code"`
	// Message is a human-readable description; its text is NOT part of the
	// stable contract, only Code is.
	Message string `json:"message"`
	// Retryable hints whether the same request may succeed later.
	Retryable bool `json:"retryable"`
	// RetryAfterMs is the suggested wait before retrying, in milliseconds.
	// It is set whenever the response carries a Retry-After header (429s)
	// and is the precise value: the header is this duration rounded up to
	// whole seconds (headers cannot carry fractions), so
	// ceil(RetryAfterMs/1000) always equals the header.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// TraceID echoes the request's trace id when one was supplied.
	TraceID string `json:"trace_id,omitempty"`
}
