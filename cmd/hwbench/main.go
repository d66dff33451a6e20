// Command hwbench runs the hwstar experiment suite (E1–E26 from DESIGN.md)
// and prints each experiment's result tables. Every table corresponds to one
// claim of the ICDE 2013 keynote "Hardware killed the software star" made
// measurable.
//
// Usage:
//
//	hwbench [-scale f] [-csv dir] [-list] [experiment ids...]
//
// With no ids, the full suite runs. Scale 1 is the full configuration;
// smaller values shrink data sizes proportionally for quick runs. -csv
// also writes every table machine-readably.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hwstar/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "experiment size multiplier (1 = full size)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %s\n      claim: %s\n", e.ID, e.Title, e.Claim)
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
