package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func readBenchmarkFile(t *testing.T) ([]byte, benchmarkDoc) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return raw, bf
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the program's own
// tables (`hwperf -spec` regenerates it) and to the driver's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	suite, err := loadSuite()
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON(suite)
	if err != nil {
		t.Fatal(err)
	}
	raw, bf := readBenchmarkFile(t)
	if !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./cmd/hwperf -spec`; regenerate it")
	}

	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range bf.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json exceeds the driver's size limits")
	}
	if total := 4 + 22*len(bf.Workloads); total*(bf.RunSeconds+12) > 3420 {
		t.Errorf("%d runs of %d s with ~12 s of set-up, probes and restarts each exceed the driver's 3420 s", total, bf.RunSeconds)
	}
}

// toyScale shrinks a workload to 8 Ki rows, small inline bodies and two
// restarts, so the smoke test finishes in seconds.
func toyScale(w workloadSpec) workloadSpec {
	if w.Rows > 0 {
		w.Rows = 8 << 10
	}
	if w.LineitemRows > 0 {
		w.JoinBuild, w.JoinProbe = 256, 1024
		w.GroupRows, w.GroupKeys = 4096, 256
		w.InlineBodies = 2
		w.LineitemRows = 2000
	}
	if w.Restarts > 0 {
		w.Restarts = 2
	}
	return w
}

// TestQuietSlices: the quiet part of a window is the slices with the most
// correct responses, and only their responses count.
func TestQuietSlices(t *testing.T) {
	const slice = int64(100 * time.Millisecond)
	w := window{start: 1000, scheduled: 10 * time.Duration(slice)}
	add := func(k, n int, latMs int64, ok bool) {
		for i := 0; i < n; i++ {
			end := w.start + int64(k)*slice + int64(i+1)*1e6
			w.samples = append(w.samples, sample{start: end - latMs*1e6, end: end, ok: ok})
		}
	}
	for k := 0; k < 10; k++ {
		add(k, 10, 8, true) // the host in the way: 10 responses of 8 ms
	}
	add(3, 10, 5, true)  // slice 3 is quiet: 20 responses in all
	add(7, 50, 1, false) // failures count for nothing
	add(10, 30, 1, true) // in flight at the deadline: after the last slice
	qps, lat := w.quiet(time.Duration(slice), 0.1)
	if qps != 200 || len(lat) != 20 || lat[0] != 5 || lat[19] != 8 {
		t.Errorf("quiet: %v responses/s over %d latencies %v, want 200 over the 20 of slice 3", qps, len(lat), lat)
	}
	if qps, lat := w.quiet(time.Hour, 0.1); len(lat) != 110 || qps != 110 {
		t.Errorf("a window shorter than a slice is one slice: got %v responses/s over %d latencies", qps, len(lat))
	}
}

var reportLine = regexp.MustCompile(`^  (\S+)\s+(\S+) (\S+)`)

// TestWorkloadsSmoke runs each workload at toy scale with one client and
// asserts only facts that do not depend on how fast the host is.
func TestWorkloadsSmoke(t *testing.T) {
	suite, err := loadSuite()
	if err != nil {
		t.Fatal(err)
	}
	suite.PoolQueries = 256
	_, bf := readBenchmarkFile(t)

	for _, spec := range suite.Workloads {
		spec := toyScale(spec)
		t.Run(spec.Name, func(t *testing.T) {
			cfg := config{
				Seed:      7,
				Seconds:   1.1, // 110 ms warm-up, a 1 s window
				Trace:     -1,
				OutDir:    t.TempDir(),
				Clients:   1, // one query per pass, so block outcomes add up exactly
				SetupReps: 1,
				ProbeOps:  32,
			}
			res, err := runWorkload(context.Background(), suite, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Every metric of BENCHMARK.json is printed exactly once, finite.
			var out bytes.Buffer
			res.print(&out, cfg)
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				m := reportLine.FindStringSubmatch(line)
				if m == nil || m[1] == "FAILED" {
					continue
				}
				v, err := strconv.ParseFloat(m[2], 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s: value %q is not a finite number", m[1], m[2])
				}
				printed[m[1]]++
			}
			for _, m := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
				if printed[m.Name] != 1 {
					t.Errorf("metric %s printed %d times, want once", m.Name, printed[m.Name])
				}
			}
			if len(printed) != len(bf.EndToEnd)+len(bf.PerLayer) {
				t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(printed), len(bf.EndToEnd)+len(bf.PerLayer))
			}
			for _, m := range bf.EndToEnd {
				if v := res.metrics[m.Name].value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v)
				}
			}

			// The last line is the driver's object, with exactly its keys.
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := obj[k]; !ok {
					t.Errorf("result line lacks %q", k)
				}
			}
			if len(obj) != 4 {
				t.Errorf("result line has %d keys, want 4", len(obj))
			}

			// No wrong answer, no partial, no refusal: error_rate is 0. On
			// durable_churn this includes the restarts, so the
			// unacknowledged version never survived one.
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d answers failed: %v", res.failed, res.attempted, res.problems)
			}
			if v := res.metrics["error_rate"].value; v != 0 {
				t.Errorf("error_rate = %v", v)
			}

			// Span parent ids resolve, within the same request.
			byID := map[int64]span{}
			for _, s := range res.spans {
				byID[s.ID] = s
			}
			if len(res.spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			for _, s := range res.spans {
				if s.Parent == 0 {
					if s.Name != spanNames[spanClient] {
						t.Errorf("span %d (%s) has no parent", s.ID, s.Name)
					}
					continue
				}
				p, ok := byID[s.Parent]
				if !ok || p.Trace != s.Trace {
					t.Errorf("span %d (%s): parent %d does not resolve within trace %d", s.ID, s.Name, s.Parent, s.Trace)
				}
			}
			if v := res.metrics["trace.coverage_pct"].value; v < 99 {
				t.Errorf("trace.coverage_pct = %v, want >= 99", v)
			}

			// Block outcomes: with one query per pass, every block of the
			// stripe is pruned, fast-summed or decoded exactly once. A
			// hedged dispatch can cancel a pass half way, so the identity
			// is asserted only when the window hedged nothing.
			if spec.Table != "" && res.metrics["shard.hedge_rate"].value == 0 {
				b := res.blocks
				if b.passes == 0 || b.pruned+b.fastSums+b.decoded != b.stripeBlocks*b.passes {
					t.Errorf("block outcomes %d pruned + %d fast-summed + %d decoded != %d blocks x %d passes",
						b.pruned, b.fastSums, b.decoded, b.stripeBlocks, b.passes)
				}
			}

			// The store does work on durable_churn and none elsewhere.
			for name, v := range res.metrics {
				isStore := strings.HasPrefix(name, "store.") || name == "checkpoint_mb_per_s" ||
					name == "recovery_ms" || name == "stored_bytes_per_user_byte"
				if isStore && !spec.Durable && v.value != 0 {
					t.Errorf("%s = %v outside durable_churn", name, v.value)
				}
			}
			if spec.Durable {
				if res.metrics["recovery_ms"].value <= 0 || res.metrics["checkpoint_mb_per_s"].value <= 0 {
					t.Error("durable_churn reported no checkpoint or no restart")
				}
				if v := res.metrics["store.recovery_fallbacks"].value; v != 0 {
					t.Errorf("store.recovery_fallbacks = %v", v)
				}
			}
		})
	}
}
