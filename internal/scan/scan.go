// Package scan implements cooperative shared scans in the style of
// Crescando/ClockScan (from the keynote author's group): instead of running
// each query as its own pass over the data — which multiplies memory traffic
// by the number of concurrent queries — a single clock scan streams the data
// once per batch and evaluates every active query against each chunk. A
// query-index over predicates keeps the per-tuple work sublinear in the
// number of queries.
//
// The package provides the query-at-a-time baseline, the shared scan, and a
// parallel segmented variant (each worker owns a data segment, as in the real
// system), all computing identical results over real data.
package scan

import (
	"context"
	"fmt"

	"hwstar/internal/errs"
	"hwstar/internal/hw"
	"hwstar/internal/sched"
	"hwstar/internal/trace"
)

// Query is a range-filter aggregation: SUM(agg column) over rows whose
// filter-column value lies in [Lo, Hi].
type Query struct {
	FilterCol int
	Lo, Hi    int64
	AggCol    int
}

// Validate checks the query against a relation of ncols columns.
func (q Query) Validate(ncols int) error {
	if q.FilterCol < 0 || q.FilterCol >= ncols {
		return fmt.Errorf("scan: filter column %d out of range: %w", q.FilterCol, errs.ErrInvalidInput)
	}
	if q.AggCol < 0 || q.AggCol >= ncols {
		return fmt.Errorf("scan: agg column %d out of range: %w", q.AggCol, errs.ErrInvalidInput)
	}
	if q.Lo > q.Hi {
		return fmt.Errorf("scan: empty range [%d, %d]: %w", q.Lo, q.Hi, errs.ErrInvalidInput)
	}
	return nil
}

// Relation is columnar int64 data for scanning.
type Relation struct {
	cols [][]int64
	rows int
}

// NewRelation wraps columns (equal length) as a scannable relation.
func NewRelation(cols [][]int64) (*Relation, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("scan: need at least one column: %w", errs.ErrInvalidInput)
	}
	rows := len(cols[0])
	for i, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("scan: column %d has %d rows, expected %d: %w", i, len(c), rows, errs.ErrInvalidInput)
		}
	}
	return &Relation{cols: cols, rows: rows}, nil
}

// NumRows returns the row count.
func (r *Relation) NumRows() int { return r.rows }

// NumCols returns the column count.
func (r *Relation) NumCols() int { return len(r.cols) }

const colBytes = 8

// QueryAtATime runs each query as its own full scan — the baseline whose
// memory traffic is queries × data size.
func QueryAtATime(r *Relation, queries []Query, acct *hw.Account) ([]int64, error) {
	out := make([]int64, len(queries))
	for qi, q := range queries {
		if err := q.Validate(r.NumCols()); err != nil {
			return nil, err
		}
		fc, ac := r.cols[q.FilterCol], r.cols[q.AggCol]
		var sum int64
		for i, v := range fc {
			if v >= q.Lo && v <= q.Hi {
				sum += ac[i]
			}
		}
		out[qi] = sum
		if acct != nil {
			acct.Charge(hw.Work{
				Name:            "qat-scan",
				Tuples:          int64(r.rows),
				ComputePerTuple: 3,
				SeqReadBytes:    2 * int64(r.rows) * colBytes,
			})
		}
	}
	return out, nil
}

// queryIndex buckets the filter domain so a tuple only checks queries whose
// range overlaps its bucket — Crescando's predicate indexing idea, which
// keeps per-tuple cost near O(matching queries) instead of O(all queries).
type queryIndex struct {
	lo, hi     int64
	bucketSpan int64
	buckets    [][]int32 // query ids per bucket
	all        []Query
}

const indexBuckets = 1024

// buildQueryIndex indexes queries by their filter range over the observed
// domain [lo, hi]. All queries must share one filter column to be indexable;
// the caller checks that.
func buildQueryIndex(queries []Query, lo, hi int64) *queryIndex {
	span := (hi - lo + int64(indexBuckets)) / int64(indexBuckets)
	if span <= 0 {
		span = 1
	}
	qi := &queryIndex{lo: lo, hi: hi, bucketSpan: span, buckets: make([][]int32, indexBuckets), all: queries}
	for id, q := range queries {
		b0 := clampBucket((q.Lo - lo) / span)
		b1 := clampBucket((q.Hi - lo) / span)
		for b := b0; b <= b1; b++ {
			qi.buckets[b] = append(qi.buckets[b], int32(id))
		}
	}
	return qi
}

func clampBucket(b int64) int64 {
	if b < 0 {
		return 0
	}
	if b >= indexBuckets {
		return indexBuckets - 1
	}
	return b
}

// candidates returns the ids of queries whose range may contain v.
func (qi *queryIndex) candidates(v int64) []int32 {
	return qi.buckets[clampBucket((v-qi.lo)/qi.bucketSpan)]
}

// SharedOptions tunes the shared scan.
type SharedOptions struct {
	// UseQueryIndex enables predicate indexing; without it every query is
	// checked against every tuple (the naive sharing).
	UseQueryIndex bool
}

// Shared runs all queries in one clock-scan pass: the data is streamed once
// and each tuple is evaluated against the (indexed) query batch. All queries
// must filter on the same column when the index is enabled.
func Shared(r *Relation, queries []Query, opts SharedOptions, acct *hw.Account) ([]int64, error) {
	out := make([]int64, len(queries))
	if len(queries) == 0 {
		return out, nil
	}
	for _, q := range queries {
		if err := q.Validate(r.NumCols()); err != nil {
			return nil, err
		}
	}
	fcol := queries[0].FilterCol
	sameFilter := true
	for _, q := range queries {
		if q.FilterCol != fcol {
			sameFilter = false
			break
		}
	}

	var evalsPerTuple float64
	if opts.UseQueryIndex && sameFilter {
		lo, hi := domain(r.cols[fcol])
		qi := buildQueryIndex(queries, lo, hi)
		fc := r.cols[fcol]
		var totalEvals int64
		for i, v := range fc {
			for _, id := range qi.candidates(v) {
				q := qi.all[id]
				if v >= q.Lo && v <= q.Hi {
					out[id] += r.cols[q.AggCol][i]
				}
				totalEvals++
			}
		}
		if r.rows > 0 {
			evalsPerTuple = float64(totalEvals) / float64(r.rows)
		}
		evalsPerTuple += 1 // bucket lookup
	} else {
		for i := 0; i < r.rows; i++ {
			for qid, q := range queries {
				v := r.cols[q.FilterCol][i]
				if v >= q.Lo && v <= q.Hi {
					out[qid] += r.cols[q.AggCol][i]
				}
			}
		}
		evalsPerTuple = float64(len(queries))
	}

	if acct != nil {
		// Data streamed once: filter column plus the union of agg columns.
		aggCols := map[int]bool{}
		for _, q := range queries {
			aggCols[q.AggCol] = true
		}
		streamCols := int64(len(aggCols)) + 1
		acct.Charge(hw.Work{
			Name:            "shared-scan",
			Tuples:          int64(r.rows),
			ComputePerTuple: 2 + 3*evalsPerTuple,
			SeqReadBytes:    streamCols * int64(r.rows) * colBytes,
		})
	}
	return out, nil
}

// domain returns the min and max of a column (0,0 for empty).
func domain(col []int64) (lo, hi int64) {
	if len(col) == 0 {
		return 0, 0
	}
	lo, hi = col[0], col[0]
	for _, v := range col {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ParallelShared runs the shared scan segmented over the scheduler's
// workers: each task owns a contiguous segment (as Crescando's scan threads
// own memory partitions) and evaluates the whole query batch against it;
// per-query partial sums are combined after the pass. Cancellation is
// checked at every segment boundary; on a cancelled context the partial
// schedule and the context's error are returned and the sums must be
// discarded.
func ParallelShared(ctx context.Context, r *Relation, queries []Query, opts SharedOptions, s *sched.Scheduler, segRows int) ([]int64, sched.Result, error) {
	for _, q := range queries {
		if err := q.Validate(r.NumCols()); err != nil {
			return nil, sched.Result{}, err
		}
	}
	if segRows <= 0 {
		segRows = 1 << 16
	}
	nSegs := (r.rows + segRows - 1) / segRows
	partials := make([][]int64, nSegs)

	tasks := sched.Morsels(r.rows, segRows, "clock-scan", func(start, end int, w *sched.Worker) {
		seg := segmentOf(r, start, end)
		res, err := Shared(seg, queries, opts, nil)
		if err != nil {
			// Validation already ran; a failure here is a programming error.
			panic(err)
		}
		partials[start/segRows] = res
		n := int64(end - start)
		aggCols := map[int]bool{}
		for _, q := range queries {
			aggCols[q.AggCol] = true
		}
		evals := float64(len(queries))
		if opts.UseQueryIndex {
			// The index reduces evaluated queries per tuple; charge the
			// average selectivity-driven cost (approximated as same ratio
			// the serial path computes — here we conservatively charge
			// log-bucket lookup plus expected matches).
			evals = 1 + evals/indexBuckets*4
		}
		acct := hw.Work{
			Name:            "clock-scan",
			Tuples:          n,
			ComputePerTuple: 2 + 3*evals,
			SeqReadBytes:    (int64(len(aggCols)) + 1) * n * colBytes,
		}
		w.Charge(acct)
	})
	// The scan pass reports into a "clock-scan" phase span (no-op when the
	// context carries no span): the phase's makespan cycles, its query batch
	// size, and the scheduler's per-worker breakdown beneath it.
	ps := trace.FromContext(ctx).Child("clock-scan")
	ps.SetAttr("queries", fmt.Sprintf("%d", len(queries)))
	ps.SetAttr("segments", fmt.Sprintf("%d", nSegs))
	schedRes, err := s.RunContext(trace.NewContext(ctx, ps), tasks)
	ps.AddCycles(schedRes.MakespanCycles)
	ps.End()
	if err != nil {
		return nil, schedRes, err
	}

	out := make([]int64, len(queries))
	for _, p := range partials {
		for i, v := range p {
			out[i] += v
		}
	}
	return out, schedRes, nil
}

// segmentOf views rows [start, end) of r as a relation (no copying).
func segmentOf(r *Relation, start, end int) *Relation {
	cols := make([][]int64, len(r.cols))
	for i, c := range r.cols {
		cols[i] = c[start:end]
	}
	return &Relation{cols: cols, rows: end - start}
}
