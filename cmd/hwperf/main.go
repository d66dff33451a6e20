// Command hwperf is the repository's benchmark: it builds the real serving
// stack in-process the way cmd/hwserve mounts it, drives it over loopback
// HTTP from closed-loop clients, verifies every answer against an oracle,
// and prints every end-to-end and per-layer metric of BENCHMARK.json by
// name and unit. See README.md in this directory.
//
// Usage:
//
//	go run ./cmd/hwperf -seed N                      all workloads, one process each
//	go run ./cmd/hwperf -seed N -workload W          one workload, in this process
//	go run ./cmd/hwperf -seed N -repeat 2            the set twice, with the self-check
//	go run ./cmd/hwperf -spec                        print BENCHMARK.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hwperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (default: every workload, a fresh process each)")
		seed     = fs.Int64("seed", 1, "seed of the generated tables and query pools")
		seconds  = fs.Float64("seconds", runSeconds, "measuring time of one pass: warm-up plus the untraced window, or warm-up plus reference and traced windows")
		trace    = fs.Int("trace", -1, "0: untraced windows, end-to-end metrics only; 1: traced pass, per-layer metrics only; -1: both")
		out      = fs.String("out", ".bench_build/hwperf", "directory for the span files and the durable store")
		repeat   = fs.Int("repeat", 1, "run the set this many times; with 2 or more, print the relative difference per end-to-end metric and fail if any exceeds its bound")
		spec     = fs.Bool("spec", false, "print BENCHMARK.json as generated from this program's tables, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite, err := loadSuite()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *spec {
		doc, err := benchmarkJSON(suite)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		_, _ = stdout.Write(doc)
		return 0
	}
	if *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "hwperf: -seconds must be positive, -repeat at least 1, -trace one of -1, 0, 1")
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace, OutDir: *out, SetupReps: 7, ProbeOps: 1024}

	if *workload != "" && *repeat == 1 {
		ws, err := suite.workload(*workload)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		res, err := runWorkload(ctx, suite, ws, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "hwperf:", err)
			return 1
		}
		res.print(stdout, cfg)
		return 0
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range suite.Workloads {
			names = append(names, w.Name)
		}
	}
	return runSet(ctx, names, cfg, *repeat, stdout, stderr)
}

// print writes the human-readable report and, as the last line, the one
// JSON object the driver reads.
func (r *result) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "hwperf workload=%s %s\n", r.workload, r.env)
	line := func(m metricDef) {
		v, ok := r.metrics[m.Name]
		if !ok {
			return
		}
		if v.note != "" {
			fmt.Fprintf(w, "  %-40s %14.4f %-6s [%s]\n", m.Name, v.value, v.unit, v.note)
		} else {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.Name, v.value, v.unit)
		}
	}
	if cfg.Trace != 1 {
		fmt.Fprintln(w, "end-to-end (tracing off)")
		for _, m := range endToEnd {
			line(m)
		}
	}
	if cfg.Trace != 0 {
		fmt.Fprintf(w, "per-layer (traced pass and probes; spans in %s; timings over the quietest %g of the %v slices of an untraced window, %d of its %d latency samples)\n",
			r.tracePath, quietShare, sliceLen, r.quietSamples, r.samples)
		for _, m := range perLayer {
			line(m)
		}
	}
	fmt.Fprintf(w, "verified %d answers, %d failed\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED %s\n", p)
	}
	_, _ = w.Write(r.driverJSON())
}

// driverResult is the driver's contract: exactly correct, attempted,
// failed and metrics, each metric with its value as measured and its unit.
// runSet parses its children's last line back into it.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) driverJSON() []byte {
	doc := driverResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]driverMetric)}
	for name, v := range r.metrics {
		doc.Metrics[name] = driverMetric{v.value, v.unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // finite floats and strings always marshal; a NaN is a bug here
	}
	return append(b, '\n')
}

// runSet runs each named workload in a fresh process, repeat times over,
// passing the children's reports through. It then prints the question E18
// put to the model, put to the host, and the repeat self-check.
func runSet(ctx context.Context, names []string, cfg config, repeat int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "hwperf:", err)
		return 1
	}
	sets := make([]map[string]driverResult, repeat)
	failed := false
	for rep := range sets {
		sets[rep] = make(map[string]driverResult)
		for _, name := range names {
			if repeat > 1 {
				fmt.Fprintf(stdout, "=== set %d of %d\n", rep+1, repeat)
			}
			cmd := exec.CommandContext(ctx, self,
				"-workload", name,
				"-seed", strconv.FormatInt(cfg.Seed, 10),
				"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(cfg.Trace),
				"-out", cfg.OutDir)
			var buf bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "hwperf: workload %s: %v\n", name, err)
				return 1
			}
			cr, err := lastJSONLine(buf.Bytes())
			if err != nil {
				fmt.Fprintf(stderr, "hwperf: workload %s: %v\n", name, err)
				return 1
			}
			if !cr.Correct {
				failed = true
			}
			sets[rep][name] = cr
		}
	}

	if cfg.Trace != 0 && len(names) > 1 {
		printRankAgreement(stdout, names, sets[repeat-1])
	}
	if repeat > 1 && cfg.Trace != 1 {
		if !selfCheck(stdout, names, sets) {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

func lastJSONLine(out []byte) (driverResult, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var cr driverResult
	if err := json.Unmarshal([]byte(last), &cr); err != nil {
		return cr, fmt.Errorf("no result line: %w", err)
	}
	return cr, nil
}

// printRankAgreement prints hw.rank_agreement, the one metric that needs
// every workload: does ordering the workloads by modeled cycles per query
// match ordering them by measured backend time?
func printRankAgreement(w io.Writer, names []string, set map[string]driverResult) {
	order := func(metric string) []string {
		s := append([]string(nil), names...)
		sort.SliceStable(s, func(i, j int) bool {
			return set[s[i]].Metrics[metric].Value < set[s[j]].Metrics[metric].Value
		})
		return s
	}
	byModel, byHost := order("hw.sim_mcycles_per_query"), order("shard.submit_ms_p50")
	agree := 1
	for i := range byModel {
		if byModel[i] != byHost[i] {
			agree = 0
		}
	}
	fmt.Fprintf(w, "summary\n  %-40s %14d %s\n    by modeled cycles: %s\n    by backend time:   %s\n",
		"hw.rank_agreement", agree, "bool", strings.Join(byModel, " < "), strings.Join(byHost, " < "))
}

// selfCheck compares the first and last set: the relative difference of
// each end-to-end metric against its bound. Two runs of the same code have
// no better side, so the difference counts in either direction.
func selfCheck(w io.Writer, names []string, sets []map[string]driverResult) bool {
	ok := true
	first, last := sets[0], sets[len(sets)-1]
	fmt.Fprintf(w, "repeat self-check: set %d against set 1, relative difference per end-to-end metric\n", len(sets))
	for _, name := range names {
		for _, m := range endToEnd {
			a, b := first[name].Metrics[m.Name].Value, last[name].Metrics[m.Name].Value
			rel := (b - a) / a
			verdict := "ok"
			if math.IsNaN(rel) || math.Abs(rel) > m.Bound {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-16s %-22s %12.4f -> %12.4f  %+7.2f%%  bound %4.1f%%  %s\n",
				name, m.Name, a, b, 100*rel, 100*m.Bound, verdict)
		}
	}
	return ok
}
