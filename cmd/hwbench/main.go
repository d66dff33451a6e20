// Command hwbench runs the hwstar experiment suite (E1–E26 from DESIGN.md)
// and prints each experiment's result tables. Every table corresponds to one
// claim of the ICDE 2013 keynote "Hardware killed the software star" made
// measurable.
//
// Usage:
//
//	hwbench [-scale f] [-csv dir] [-frontend-json file] [-store-json file] [-serve-json file] [-cluster-json file] [-list] [experiment ids...]
//
// With no ids, the full suite runs. Scale 1 is the full configuration;
// smaller values shrink data sizes proportionally for quick runs.
// -frontend-json runs E23 (the multi-tenant frontend isolation experiment)
// and writes its structured result — per-tenant p50/p99, throughput, and
// shed/rate-limited counts — as JSON, the BENCH_frontend.json artifact.
// -store-json runs E24 (the durable-tier crash-recovery experiment) and
// writes its structured result — kill/recover schedule outcomes, recovery
// time vs data volume, and checkpoint interference on interactive p99 — as
// JSON, the BENCH_store.json artifact.
// -serve-json runs E25 (the vectorized compressed serving experiment) and
// writes its structured result — row clock scan vs server cycles per query,
// chaos-mix tail latency — as JSON, the BENCH_serve.json artifact.
// -cluster-json runs E26 (the sharded serving tier experiment) and writes
// its structured result — node-kill/failover cycles with zero lost
// committed answers, hedged-dispatch tail bounds, typed partial results on
// total replica loss, and distributed join strategy choices — as JSON, the
// BENCH_cluster.json artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hwstar/internal/experiments"
)

// writeFrontendBench runs E23 and writes its structured result as indented
// JSON to path.
func writeFrontendBench(path string, cfg experiments.Config) error {
	b, tables, err := experiments.RunE23(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return err
	}
	fmt.Printf("    wrote %s (interactive p99 %.2fms solo vs %.2fms contended, %.2fx)\n\n",
		path, b.SoloP99Ms, b.DuoP99Ms, b.P99Ratio)
	return nil
}

// writeStoreBench runs E24 and writes its structured result as indented
// JSON to path.
func writeStoreBench(path string, cfg experiments.Config) error {
	b, tables, err := experiments.RunE24(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return err
	}
	fmt.Printf("    wrote %s (%d kills over %d recoveries, 0 lost versions; checkpoint p99 %.2fx baseline)\n\n",
		path, b.Crash.InjectedCrashes, b.Crash.Recoveries, b.Interference.P99Ratio)
	return nil
}

// writeServeBench runs E25 and writes its structured result as indented
// JSON to path.
func writeServeBench(path string, cfg experiments.Config) error {
	b, tables, err := experiments.RunE25(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return err
	}
	fmt.Printf("    wrote %s (vectorized %.2fx over row-at-a-time; chaos p99 %.2fx row)\n\n",
		path, b.Speedup, b.Chaos.P99Ratio)
	return nil
}

// writeClusterBench runs E26 and writes its structured result as indented
// JSON to path.
func writeClusterBench(path string, cfg experiments.Config) error {
	b, tables, err := experiments.RunE26(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return err
	}
	fmt.Printf("    wrote %s (%d kill/failover cycles, %d lost answers; straggler p99 %.2fx no-fault, host time, bar 2x)\n\n",
		path, b.Failover.Cycles, b.Failover.LostAnswers, b.Hedge.P99Ratio)
	return nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "experiment size multiplier (1 = full size)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	frontendJSON := flag.String("frontend-json", "", "run E23 and write its per-tenant bench result to this JSON file, then exit")
	storeJSON := flag.String("store-json", "", "run E24 and write its durability bench result to this JSON file, then exit")
	serveJSON := flag.String("serve-json", "", "run E25 and write its vectorized-serving bench result to this JSON file, then exit")
	clusterJSON := flag.String("cluster-json", "", "run E26 and write its sharded-tier bench result to this JSON file, then exit")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %s\n      claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	if *frontendJSON != "" {
		if err := writeFrontendBench(*frontendJSON, experiments.Config{Scale: *scale}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *storeJSON != "" {
		if err := writeStoreBench(*storeJSON, experiments.Config{Scale: *scale}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *serveJSON != "" {
		if err := writeServeBench(*serveJSON, experiments.Config{Scale: *scale}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *clusterJSON != "" {
		if err := writeClusterBench(*clusterJSON, experiments.Config{Scale: *scale}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var toRun []experiments.Experiment
	if flag.NArg() == 0 {
		toRun = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	cfg := experiments.Config{Scale: *scale}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	failed := false
	for _, e := range toRun {
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("    claim: %s\n\n", e.Claim)
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed = true
			continue
		}
		for ti, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
			if *csvDir != "" {
				name := fmt.Sprintf("%s_%d.csv", strings.ToLower(e.ID), ti)
				f, err := os.Create(filepath.Join(*csvDir, name))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					failed = true
					continue
				}
				if err := t.CSV(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
					failed = true
				}
				f.Close()
			}
		}
		fmt.Printf("    (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}
