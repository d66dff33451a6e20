package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"hwstar/internal/bench"
	"hwstar/internal/fault"
	"hwstar/internal/hw"
	"hwstar/internal/serve"
	"hwstar/internal/store"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E24",
		Title: "Durable tier: crash recovery, recovery time vs data volume, checkpoint interference",
		Claim: "a checkpointed storage tier with an atomically-committed manifest never loses a committed version across injected mid-checkpoint kills and replays exactly the pre-crash contents; recovery cost scales with validated data volume through the modeled flash tier; and background checkpoints run concurrently with serving without collapsing interactive latency",
		Run:   runE24,
	})
}

// e24CrashBench summarizes the kill/recover schedules — the durability
// contract, counted exactly. LostVersions and ContentMismatches must be
// zero; the experiment fails loudly otherwise.
type e24CrashBench struct {
	Schedules, Lives, InjectedCrashes, Checkpoints         int
	Recoveries, Fallbacks, LostVersions, ContentMismatches int
}

// e24RecoveryPoint is one point of the recovery-time-vs-volume sweep.
type e24RecoveryPoint struct {
	Tables             int
	BytesValidated     int64
	SimMcycles, WallMs float64
}

// e24InterferenceBench compares interactive scan p99 with and without
// background checkpoints running against the same durable server.
type e24InterferenceBench struct {
	BaselineP50Ms, BaselineP99Ms     float64
	CheckpointP50Ms, CheckpointP99Ms float64
	P99Ratio                         float64
	Checkpoints, SegmentBytes        int64
}

// e24Cols derives the columns staged for one attempt version of one
// schedule. Contents are a function of the version alone (within a
// schedule), so every landed MANIFEST-v has exactly one possible content
// and recovery can be verified byte-for-byte no matter which life landed
// it.
func e24Cols(sched int, version uint64, rows int) [][]int64 {
	return [][]int64{
		workload.UniformInts(int64(sched)*1000+int64(version), rows, 1_000_000),
		workload.UniformInts(int64(sched)*1000+int64(version)+500, rows, 1000),
	}
}

// e24Verify compares every table of a freshly recovered store against the
// expected state for its version, returning the mismatch count.
func e24Verify(ctx context.Context, st *store.Store, want map[string][][]int64) int {
	mismatches := 0
	if got := st.Tables(); len(got) != len(want) {
		mismatches++
	}
	for name, wantCols := range want {
		t, err := st.Load(ctx, name)
		if err != nil {
			mismatches++
			continue
		}
		gotCols, ok := store.ColsFromTable(t)
		if !ok || len(gotCols) != len(wantCols) {
			mismatches++
			continue
		}
		for c := range wantCols {
			if len(gotCols[c]) != len(wantCols[c]) {
				mismatches++
				break
			}
			for r := range wantCols[c] {
				if gotCols[c][r] != wantCols[c][r] {
					mismatches++
					break
				}
			}
		}
	}
	return mismatches
}

// runE24Crash runs the kill/recover schedules: each schedule is a sequence
// of "lives" over one directory — open (recover), verify the recovered
// state byte-for-byte, stage new data, checkpoint under a seeded injector
// that may kill the process mid-checkpoint, abandon the store without
// cleanup (the SIGKILL), repeat.
//
// A checkpoint that returns success must be visible to the next life. A
// checkpoint that "died" is commit-uncertain, exactly like a crash during
// any WAL commit: the attempt's manifest may or may not have landed, so the
// next life must recover either the previous version or the attempted one —
// never anything older than the last acked commit, and always with the
// exact contents recorded for whatever version it landed on.
func runE24Crash(m *hw.Machine, schedules, lives, rows int) (e24CrashBench, error) {
	ctx := context.Background()
	b := e24CrashBench{Schedules: schedules, Lives: lives}
	for sched := 0; sched < schedules; sched++ {
		dir, err := os.MkdirTemp("", "hwstar-e24-crash-*")
		if err != nil {
			return b, err
		}
		// states[v] is the one possible content of version v; committed is
		// the last acked version, attempted the highest version any
		// checkpoint tried to write.
		states := map[uint64]map[string][][]int64{0: {}}
		var committed, attempted uint64
		for life := 0; life < lives; life++ {
			in := fault.New(fault.Config{
				Seed:      int64(2400 + sched*100 + life),
				CrashProb: 0.4,
				MaxFaults: 1,
			})
			st, err := store.Open(store.Options{Dir: dir, Machine: m, Faults: in})
			if err != nil {
				os.RemoveAll(dir)
				return b, fmt.Errorf("e24: schedule %d life %d: recovery failed: %w", sched, life, err)
			}
			b.Recoveries++
			b.Fallbacks += st.Recovery().Fallbacks
			v := st.Version()
			if v < committed || v > attempted || states[v] == nil {
				b.LostVersions++
			} else {
				b.ContentMismatches += e24Verify(ctx, st, states[v])
			}

			// Stage the deterministic table for the next version and try to
			// commit it.
			next := v + 1
			name := fmt.Sprintf("t%d", int(next)%4)
			cols := e24Cols(sched, next, rows)
			nextState := make(map[string][][]int64, len(states[v])+1)
			for n, c := range states[v] {
				nextState[n] = c
			}
			nextState[name] = cols
			states[next] = nextState
			if next > attempted {
				attempted = next
			}
			t, err := store.TableFromCols(name, cols)
			if err != nil {
				os.RemoveAll(dir)
				return b, err
			}
			if err := st.Put(t); err != nil {
				os.RemoveAll(dir)
				return b, err
			}
			_, err = st.Checkpoint(ctx, nil)
			switch {
			case err == nil:
				b.Checkpoints++
				committed = next
			case errors.Is(err, store.ErrInjectedCrash):
				// The process "died" mid-checkpoint: partial files stay on
				// disk, the commit is uncertain until the next recovery.
				b.InjectedCrashes++
			default:
				os.RemoveAll(dir)
				return b, fmt.Errorf("e24: schedule %d life %d: checkpoint: %w", sched, life, err)
			}
			// No Close: a kill does not run shutdown hooks.
		}
		os.RemoveAll(dir)
	}
	if b.LostVersions > 0 || b.ContentMismatches > 0 {
		return b, fmt.Errorf("e24: durability contract violated: %d lost committed versions, %d content mismatches (want 0 and 0)",
			b.LostVersions, b.ContentMismatches)
	}
	return b, nil
}

// runE24Recovery measures recovery against data volume: checkpoint k tables
// of fixed size, reopen, and record what replay validated and what it cost
// through the modeled flash tier.
func runE24Recovery(m *hw.Machine, tableCounts []int, rows int) ([]e24RecoveryPoint, error) {
	ctx := context.Background()
	var points []e24RecoveryPoint
	for _, k := range tableCounts {
		dir, err := os.MkdirTemp("", "hwstar-e24-recover-*")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(store.Options{Dir: dir, Machine: m})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		for i := 0; i < k; i++ {
			cols := [][]int64{
				workload.UniformInts(int64(2450+i), rows, 1_000_000),
				workload.UniformInts(int64(2460+i), rows, 1000),
			}
			t, err := store.TableFromCols(fmt.Sprintf("vol%d", i), cols)
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			if err := st.Put(t); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
		}
		if _, err := st.Checkpoint(ctx, nil); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		st.Close()

		st2, err := store.Open(store.Options{Dir: dir, Machine: m})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		r := st2.Recovery()
		points = append(points, e24RecoveryPoint{
			Tables:         r.TablesTotal,
			BytesValidated: r.BytesValidated,
			SimMcycles:     r.SimCycles / 1e6,
			WallMs:         float64(r.WallNanos) / 1e6,
		})
		st2.Close()
		os.RemoveAll(dir)
	}
	return points, nil
}

// e24Workload fires clients×requests interactive scans at srv and returns
// the per-request wall latencies in milliseconds. Lo windows walk the key
// domain deterministically — no RNG, so both phases submit the identical
// query stream.
func e24Workload(srv *serve.Server, clients, requests int) []float64 {
	return closedLoop(clients, requests, func(c, i int) error {
		lo := int64((c*7919 + i*104729) % 90000)
		_, err := srv.Submit(context.Background(), serve.Request{Op: serve.OpScan, Table: "facts", Query: cohortQuery(lo)})
		return err
	})
}

// runE24Interference measures interactive p99 on a durable server twice:
// once quiescent, once with a short-interval background checkpointer racing
// the same workload while a churn writer keeps marking tables dirty (clean
// tables checkpoint for free; the interference under test is segment
// encoding and flash writes on the serving path's machine).
func runE24Interference(m *hw.Machine, clients, requests, factRows, churnRows int) (e24InterferenceBench, error) {
	run := func(interval time.Duration) ([]float64, int64, int64, error) {
		dir, err := os.MkdirTemp("", "hwstar-e24-cp-*")
		if err != nil {
			return nil, 0, 0, err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(store.Options{Dir: dir, Machine: m})
		if err != nil {
			return nil, 0, 0, err
		}
		defer st.Close()
		srv, err := serve.New(m, serve.Options{
			Workers:            8,
			QueueDepth:         1024,
			MaxBatch:           256,
			Store:              st,
			CheckpointInterval: interval,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		facts := [][]int64{
			workload.UniformInts(2471, factRows, 100000),
			workload.UniformInts(2472, factRows, 1000),
		}
		if err := srv.Register("facts", facts); err != nil {
			srv.Close()
			return nil, 0, 0, err
		}
		// Persist the initial load before the measured window (both phases):
		// the steady state under test is incremental background checkpoints,
		// not the one-off bulk write of the whole fact table.
		if _, err := srv.Checkpoint(context.Background()); err != nil {
			srv.Close()
			return nil, 0, 0, err
		}

		// Churn writer: keep a side table dirty so every background
		// checkpoint has real segment work, in both phases (in the baseline
		// it only stages memory).
		stopChurn := make(chan struct{})
		var churnWG sync.WaitGroup
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for gen := 0; ; gen++ {
				select {
				case <-stopChurn:
					return
				case <-time.After(2 * time.Millisecond):
				}
				cols := [][]int64{workload.UniformInts(int64(2480+gen), churnRows, 1000)}
				_ = srv.Register("churn", cols)
			}
		}()

		lat := e24Workload(srv, clients, requests)
		close(stopChurn)
		churnWG.Wait()
		if err := srv.Close(); err != nil {
			return nil, 0, 0, err
		}
		// Health after Close so the shutdown flush counts too.
		h := srv.Health()
		return lat, h.Checkpoints, srv.Metrics().Counter("serve.checkpoint_bytes").Value(), nil
	}

	baseLat, _, _, err := run(0)
	if err != nil {
		return e24InterferenceBench{}, err
	}
	cpLat, cpCount, cpBytes, err := run(10 * time.Millisecond)
	if err != nil {
		return e24InterferenceBench{}, err
	}
	b := e24InterferenceBench{
		BaselineP50Ms:   quantileOf(baseLat, 0.5),
		BaselineP99Ms:   quantileOf(baseLat, 0.99),
		CheckpointP50Ms: quantileOf(cpLat, 0.5),
		CheckpointP99Ms: quantileOf(cpLat, 0.99),
		Checkpoints:     cpCount,
		SegmentBytes:    cpBytes,
	}
	if b.BaselineP99Ms > 0 {
		b.P99Ratio = b.CheckpointP99Ms / b.BaselineP99Ms
	}
	return b, nil
}

// runE24 executes the durability experiment: the crash schedules fail it
// loudly when the durability contract breaks; the rest is reported.
func runE24(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	schedules := cfg.scaled(16, 4)
	lives := cfg.scaled(8, 4)
	crashRows := cfg.scaled(4096, 512)
	recoveryRows := cfg.scaled(1<<15, 1<<11)
	clients := cfg.scaled(8, 4)
	requests := cfg.scaled(150, 25)
	factRows := cfg.scaled(1<<19, 1<<14)
	churnRows := cfg.scaled(1<<14, 1<<11)

	crash, err := runE24Crash(m, schedules, lives, crashRows)
	if err != nil {
		return nil, err
	}
	recovery, err := runE24Recovery(m, []int{1, 2, 4, 8}, recoveryRows)
	if err != nil {
		return nil, err
	}
	interference, err := runE24Interference(m, clients, requests, factRows, churnRows)
	if err != nil {
		return nil, err
	}

	t1 := bench.NewTable(
		fmt.Sprintf("E24: committed state across injected mid-checkpoint kills (%d schedules × %d lives, crash prob 0.4)",
			crash.Schedules, crash.Lives),
		"recoveries", "injected crashes", "committed checkpoints", "fallbacks", "lost versions", "content mismatches")
	t1.AddRow(bench.F("%d", crash.Recoveries), bench.F("%d", crash.InjectedCrashes),
		bench.F("%d", crash.Checkpoints), bench.F("%d", crash.Fallbacks),
		bench.F("%d", crash.LostVersions), bench.F("%d", crash.ContentMismatches))

	t2 := bench.NewTable("E24: recovery replay vs data volume (modeled flash reads, full checksum validation)",
		"tables", "bytes validated", "modeled Mcycles", "wall ms")
	for _, p := range recovery {
		t2.AddRow(bench.F("%d", p.Tables), bench.F("%d", p.BytesValidated),
			bench.F("%.2f", p.SimMcycles), bench.F("%.2f", p.WallMs))
	}

	t3 := bench.NewTable("E24: interactive scan latency with background checkpoints racing the workload",
		"phase", "p50 ms", "p99 ms", "p99 vs baseline", "checkpoints", "segment bytes")
	t3.AddRow("no checkpoints", bench.F("%.3f", interference.BaselineP50Ms),
		bench.F("%.3f", interference.BaselineP99Ms), "1.00x", "0", "0")
	t3.AddRow("10ms interval", bench.F("%.3f", interference.CheckpointP50Ms),
		bench.F("%.3f", interference.CheckpointP99Ms), bench.F("%.2fx", interference.P99Ratio),
		bench.F("%d", interference.Checkpoints), bench.F("%d", interference.SegmentBytes))
	t3.AddNote("the p99 ratio is host time and is not asserted: two -scale 0.1 runs of one tree read 1.19x and 3.84x")

	return []*Table{t1, t2, t3}, nil
}
