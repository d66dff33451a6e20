package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"

	"hwstar/internal/bench"
	"hwstar/internal/cluster"
	"hwstar/internal/errs"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/planner"
	"hwstar/internal/scan"
	"hwstar/internal/serve"
	"hwstar/internal/shard"
	"hwstar/internal/store"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E26",
		Title: "Sharded tier: node-loss failover, hedged-dispatch tails, typed partial results, distributed join strategies",
		Claim: "a replicated serving tier (partition p on nodes p … p+R−1) survives seeded node-kill/failover cycles with zero lost committed answers on replicated ranges (recovery re-replicating from surviving durable stores); hedged dispatch bounds the straggler tail to within 2x the no-fault p99; total replica loss degrades to typed partial results that are exact over the covered fraction, never silently wrong totals; and the planner's cost model picks shuffle vs broadcast per the fabric price while distributed joins stay exact",
		Run:   runE26,
	})
}

// e26FailoverBench counts the kill/failover cycles — the replication
// contract, verified exactly. LostAnswers must be zero.
type e26FailoverBench struct {
	Cycles, NodeKills, ScansVerified, LostAnswers int
	Rereplications                                int64
}

// e26HedgeBench compares scan latency on a healthy cluster against one with
// injected per-shard stragglers and hedged dispatch absorbing them.
type e26HedgeBench struct {
	NoFaultP50Ms, NoFaultP99Ms     float64
	StragglerP50Ms, StragglerP99Ms float64
	P99Ratio                       float64
	Hedges, HedgeWins              int64
}

// e26PartialBench counts the total-replica-loss trials. Every trial must
// produce a typed partial result with the exact covered sum; a single
// silent wrong total fails the experiment.
type e26PartialBench struct {
	Trials, TypedPartials, ExactCoveredSums, SilentWrongSums int
	MinCoveredFrac                                           float64
}

// e26StrategyPoint is one row of the shuffle-vs-broadcast table.
type e26StrategyPoint struct {
	BuildRows, ProbeRows             int
	Chosen                           string
	ShuffleMcycles, BroadcastMcycles float64
	NetworkMcycles                   float64
	BytesMoved, Matches              int64
	Exact                            bool
}

// e26Bench is the structured E26 outcome the gate test reads.
type e26Bench struct {
	Failover   e26FailoverBench
	Hedge      e26HedgeBench
	Partial    e26PartialBench
	Strategies []e26StrategyPoint
}

// e26Relation builds an n-row relation (sequential keys, deterministic
// values) and an exact range-sum oracle.
func e26Relation(n int) ([][]int64, func(lo, hi int64) int64) {
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
		vals[i] = int64(i%97) + 1
	}
	return [][]int64{keys, vals}, func(lo, hi int64) int64 {
		var sum int64
		for i := range keys {
			if keys[i] >= lo && keys[i] <= hi {
				sum += vals[i]
			}
		}
		return sum
	}
}

func e26ScanReq(table string, lo, hi int64) serve.Request {
	return serve.Request{Op: serve.OpScan, Table: table, Query: scan.Query{FilterCol: 0, Lo: lo, Hi: hi, AggCol: 1}}
}

// e26Stores opens one durable store per shard in fresh temp directories and
// returns them with a cleanup closure.
func e26Stores(m *hw.Machine, n int) ([]*store.Store, func(), error) {
	var stores []*store.Store
	var dirs []string
	cleanup := func() {
		for _, st := range stores {
			st.Close()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "hwstar-e26-*")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		dirs = append(dirs, dir)
		st, err := store.Open(store.Options{Dir: dir, Machine: m})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		stores = append(stores, st)
	}
	return stores, cleanup, nil
}

// runE26Failover is the core robustness loop: `cycles` seeded node kills,
// each followed by scans verified against the oracle (R=2 must absorb one
// node loss exactly) and a recovery that re-replicates the revived node's
// stripes from the surviving replicas' durable stores.
func runE26Failover(m *hw.Machine, shards, cycles, rows int) (e26FailoverBench, error) {
	ctx := context.Background()
	b := e26FailoverBench{Cycles: cycles}

	stores, cleanup, err := e26Stores(m, shards)
	if err != nil {
		return b, err
	}
	defer cleanup()

	r, err := shard.New(ctx, m, shard.Options{
		Shards:   shards,
		Replicas: 2,
		Shard:    serve.Options{Workers: 4},
		Stores:   stores,
	})
	if err != nil {
		return b, err
	}
	defer r.Close()

	// The table arrives while node 0 is down, so its durable store never
	// sees its stripes: the first recovery MUST re-replicate them from the
	// surviving replicas' stores (the cycle loop then proves the copied
	// data keeps answering). Later cycles re-replicate whatever a node's
	// own graceful-flush replay can't restore.
	cols, expect := e26Relation(rows)
	if err := r.KillNode(0); err != nil {
		return b, err
	}
	if err := r.Register("facts", cols); err != nil {
		return b, err
	}
	if err := r.RecoverNode(ctx, 0); err != nil {
		return b, err
	}

	// Seeded victim selection: the injector's node-loss draws pick the
	// kill each cycle, so the whole schedule replays from the seed.
	inj := fault.New(fault.Config{Seed: 2600, NodeLossProb: 0.5})
	for cycle := 0; cycle < cycles; cycle++ {
		victim := -1
		for _, id := range r.LiveNodes() {
			if inj.LoseNode(id) {
				victim = id
				break
			}
		}
		if victim < 0 {
			victim = cycle % shards
		}
		if err := r.KillNode(victim); err != nil {
			return b, err
		}
		b.NodeKills++

		// Three deterministic ranges per cycle; with one node down and
		// R=2 every stripe still has a live replica, so every answer must
		// be full and exact.
		for q := 0; q < 3; q++ {
			lo := int64((cycle*1031 + q*2711) % rows)
			hi := lo + int64(rows/3)
			if hi >= int64(rows) {
				hi = int64(rows) - 1
			}
			resp, err := r.Submit(ctx, e26ScanReq("facts", lo, hi))
			b.ScansVerified++
			if err != nil || resp.Partial || resp.Sum != expect(lo, hi) {
				b.LostAnswers++
			}
		}

		if err := r.RecoverNode(ctx, victim); err != nil {
			return b, err
		}
	}
	b.Rereplications = r.ClusterHealth().Rereplications
	if b.LostAnswers > 0 {
		return b, fmt.Errorf("e26: replication contract violated: %d lost committed answers across %d kill/failover cycles (want 0)",
			b.LostAnswers, b.Cycles)
	}
	return b, nil
}

// e26Latencies fires clients×requests deterministic scans at the router
// and returns per-request wall milliseconds.
func e26Latencies(r *shard.Router, clients, requests, rows int) []float64 {
	return closedLoop(clients, requests, func(c, i int) error {
		lo := int64((c*7919 + i*104729) % (rows / 2))
		_, err := r.Submit(context.Background(), e26ScanReq("facts", lo, lo+int64(rows/4)))
		return err
	})
}

// runE26Hedge compares the same scan workload on a healthy cluster and on
// one whose shards straggle (seeded per-shard injector), with hedged
// dispatch bounding the tail. Both p99s are host wall time, so the 2x
// acceptance bar is read off P99Ratio in the second table (hwbench E26
// prints it) and is not an error here: on a busy host the ratio says more about
// the neighbours than about hedging.
func runE26Hedge(m *hw.Machine, shards, clients, requests, rows int) (e26HedgeBench, error) {
	run := func(stragglers bool) ([]float64, int64, int64, error) {
		opts := shard.Options{
			Shards:   shards,
			Replicas: 2,
			Shard:    serve.Options{Workers: 4},
		}
		if stragglers {
			opts.Shard.Faults = fault.New(fault.Config{
				Seed:          2610,
				StragglerProb: 0.2,
				StragglerSkew: 8,
			})
			opts.Shard.StragglerThreshold = 3
		}
		r, err := shard.New(context.Background(), m, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		defer r.Close()
		cols, _ := e26Relation(rows)
		if err := r.Register("facts", cols); err != nil {
			return nil, 0, 0, err
		}
		lat := e26Latencies(r, clients, requests, rows)
		ch := r.ClusterHealth()
		return lat, ch.Hedges, ch.HedgeWins, nil
	}

	base, _, _, err := run(false)
	if err != nil {
		return e26HedgeBench{}, err
	}
	straggly, hedges, wins, err := run(true)
	if err != nil {
		return e26HedgeBench{}, err
	}
	b := e26HedgeBench{
		NoFaultP50Ms:   quantileOf(base, 0.5),
		NoFaultP99Ms:   quantileOf(base, 0.99),
		StragglerP50Ms: quantileOf(straggly, 0.5),
		StragglerP99Ms: quantileOf(straggly, 0.99),
		Hedges:         hedges,
		HedgeWins:      wins,
	}
	if b.NoFaultP99Ms > 0 {
		b.P99Ratio = b.StragglerP99Ms / b.NoFaultP99Ms
	}
	return b, nil
}

// runE26Partial stages total replica loss: trial t kills every replica of
// partition t mod P, so the trials lose different stripes (any other
// partition left without a live replica is tracked too), and demands a
// typed partial result whose sum is exactly the covered stripes' total.
func runE26Partial(m *hw.Machine, shards, trials, rows int) (e26PartialBench, error) {
	ctx := context.Background()
	b := e26PartialBench{Trials: trials, MinCoveredFrac: 1}
	for trial := 0; trial < trials; trial++ {
		r, err := shard.New(ctx, m, shard.Options{
			Shards:   shards,
			Replicas: 2,
			Shard:    serve.Options{Workers: 4},
		})
		if err != nil {
			return b, err
		}
		const name = "facts"
		cols, expect := e26Relation(rows)
		if err := r.Register(name, cols); err != nil {
			r.Close()
			return b, err
		}
		parts, err := r.Partitions(name)
		if err != nil {
			r.Close()
			return b, err
		}
		killed := make(map[int]bool)
		for _, nid := range parts[trial%len(parts)].Replicas {
			if err := r.KillNode(nid); err != nil {
				r.Close()
				return b, err
			}
			killed[nid] = true
		}
		var lostSum int64
		lostRows := 0
		lo := int64(0)
		for _, p := range parts {
			hi := lo + int64(p.Rows) - 1
			allDead := true
			for _, nid := range p.Replicas {
				if !killed[nid] {
					allDead = false
				}
			}
			if allDead {
				lostSum += expect(lo, hi)
				lostRows += p.Rows
			}
			lo = hi + 1
		}

		resp, err := r.Submit(ctx, e26ScanReq(name, 0, int64(rows)-1))
		total := expect(0, int64(rows)-1)
		switch {
		case err == nil && resp.Sum != total:
			b.SilentWrongSums++
		case errors.Is(err, errs.ErrPartialResult) && resp.Partial:
			b.TypedPartials++
			if resp.Sum == total-lostSum {
				b.ExactCoveredSums++
			}
			if resp.CoveredFraction < b.MinCoveredFrac {
				b.MinCoveredFrac = resp.CoveredFraction
			}
		}
		r.Close()
	}
	if b.SilentWrongSums > 0 || b.TypedPartials != b.Trials || b.ExactCoveredSums != b.Trials {
		return b, fmt.Errorf("e26: partial-result contract violated: %d/%d typed, %d/%d exact, %d silent wrong sums",
			b.TypedPartials, b.Trials, b.ExactCoveredSums, b.Trials, b.SilentWrongSums)
	}
	return b, nil
}

// runE26Strategy prices the two classic distributed-join regimes through
// the planner and runs both on the cluster, verifying exactness against a
// single-node execution.
func runE26Strategy(m *hw.Machine, shards, probeRows int) ([]e26StrategyPoint, error) {
	ctx := context.Background()
	solo, err := shard.New(ctx, m, shard.Options{Shards: 1, Replicas: 1, Shard: serve.Options{Workers: 4}})
	if err != nil {
		return nil, err
	}
	defer solo.Close()
	clu, err := shard.New(ctx, m, shard.Options{Shards: shards, Replicas: 2, Shard: serve.Options{Workers: 4}})
	if err != nil {
		return nil, err
	}
	defer clu.Close()

	fabric := cluster.Rack10GbE(shards)
	var points []e26StrategyPoint
	for i, buildRows := range []int{probeRows / 64, probeRows / 2} {
		g := workload.GenerateJoin(workload.JoinConfig{Seed: int64(2620 + i), BuildRows: buildRows, ProbeRows: probeRows})
		var req serve.Request
		req.Op = serve.OpJoin
		req.Join.BuildKeys, req.Join.BuildVals = g.BuildKeys, g.BuildVals
		req.Join.ProbeKeys, req.Join.ProbeVals = g.ProbeKeys, g.ProbeVals

		want, err := solo.SubmitDist(ctx, req)
		if err != nil {
			return nil, err
		}
		got, err := clu.SubmitDist(ctx, req)
		if err != nil {
			return nil, err
		}
		plan := planner.ChooseDistStrategy(fabric, join.Stats{
			BuildRows: int64(buildRows), ProbeRows: int64(probeRows),
		}, hw.DefaultContext())
		points = append(points, e26StrategyPoint{
			BuildRows:        buildRows,
			ProbeRows:        probeRows,
			Chosen:           string(got.Strategy),
			ShuffleMcycles:   plan.All[cluster.StrategyShuffle] / 1e6,
			BroadcastMcycles: plan.All[cluster.StrategyBroadcast] / 1e6,
			BytesMoved:       got.BytesMoved,
			NetworkMcycles:   got.NetworkCycles / 1e6,
			Matches:          got.Matches,
			Exact:            got.Matches == want.Matches && got.Checksum == want.Checksum,
		})
		if !points[len(points)-1].Exact {
			return points, fmt.Errorf("e26: distributed join diverged from single-node truth at build=%d probe=%d", buildRows, probeRows)
		}
	}
	return points, nil
}

// runE26Bench executes the sharded-tier experiment and returns both the
// rendered tables and the structured result the tests gate on.
func runE26Bench(cfg Config) (*e26Bench, []*Table, error) {
	m := hw.Server2S()
	const shards = 4
	cycles := cfg.scaled(128, 16)
	rows := cfg.scaled(6000, 2000)
	clients := cfg.scaled(8, 4)
	requests := cfg.scaled(100, 25)
	trials := cfg.scaled(6, 3)
	probeRows := cfg.scaled(1<<15, 1<<12)

	failover, err := runE26Failover(m, shards, cycles, rows)
	if err != nil {
		return nil, nil, err
	}
	hedge, err := runE26Hedge(m, shards, clients, requests, rows)
	if err != nil {
		return nil, nil, err
	}
	partial, err := runE26Partial(m, shards, trials, rows)
	if err != nil {
		return nil, nil, err
	}
	strategies, err := runE26Strategy(m, shards, probeRows)
	if err != nil {
		return nil, nil, err
	}

	b := &e26Bench{Failover: failover, Hedge: hedge, Partial: partial, Strategies: strategies}

	t1 := bench.NewTable(
		fmt.Sprintf("E26: seeded node-kill/failover cycles on %d shards x 2 replicas (durable re-replication on recovery)", shards),
		"cycles", "node kills", "scans verified", "lost committed answers", "re-replications")
	t1.AddRow(bench.F("%d", failover.Cycles), bench.F("%d", failover.NodeKills),
		bench.F("%d", failover.ScansVerified), bench.F("%d", failover.LostAnswers),
		bench.F("%d", failover.Rereplications))

	t2 := bench.NewTable("E26: hedged dispatch vs per-shard modeled stragglers (hedge deadline: measured per-op-class p95)",
		"phase", "p50 ms", "p99 ms", "p99 vs no-fault", "hedges", "hedge wins")
	t2.AddRow("no faults", bench.F("%.3f", hedge.NoFaultP50Ms), bench.F("%.3f", hedge.NoFaultP99Ms), "1.00x", "-", "-")
	t2.AddRow("stragglers+hedging", bench.F("%.3f", hedge.StragglerP50Ms), bench.F("%.3f", hedge.StragglerP99Ms),
		bench.F("%.2fx", hedge.P99Ratio), bench.F("%d", hedge.Hedges), bench.F("%d", hedge.HedgeWins))
	t2.AddNote("host wall time: the acceptance bar is p99 vs no-fault <= 2x, read here; it is reported, not enforced, because a busy host moves it")

	t3 := bench.NewTable("E26: total replica loss degrades to typed partial results (never silent wrong sums)",
		"trials", "typed partials", "exact covered sums", "silent wrong sums", "min covered fraction")
	t3.AddRow(bench.F("%d", partial.Trials), bench.F("%d", partial.TypedPartials),
		bench.F("%d", partial.ExactCoveredSums), bench.F("%d", partial.SilentWrongSums),
		bench.F("%.3f", partial.MinCoveredFrac))

	t4 := bench.NewTable("E26: distributed join strategy chosen by the planner's fabric-priced cost model",
		"build rows", "probe rows", "chosen", "shuffle Mcyc", "broadcast Mcyc", "bytes moved", "network Mcyc", "exact")
	for _, p := range strategies {
		t4.AddRow(bench.F("%d", p.BuildRows), bench.F("%d", p.ProbeRows), p.Chosen,
			bench.F("%.2f", p.ShuffleMcycles), bench.F("%.2f", p.BroadcastMcycles),
			bench.F("%d", p.BytesMoved), bench.F("%.3f", p.NetworkMcycles),
			bench.F("%v", p.Exact))
	}

	return b, []*Table{t1, t2, t3, t4}, nil
}

func runE26(cfg Config) ([]*Table, error) {
	_, tables, err := runE26Bench(cfg)
	return tables, err
}
