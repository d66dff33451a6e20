package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hwstar"
	"hwstar/internal/hw"
)

// TestDebugEndpoints mounts the debug mux over a live server's registry and
// checks each endpoint: /metrics speaks Prometheus text exposition,
// /debug/vars speaks expvar JSON including the hwserve counters, and
// /debug/pprof serves the profile index.
func TestDebugEndpoints(t *testing.T) {
	srv, err := hwstar.NewServer(hw.Server2S(), hwstar.ServerOptions{
		QueueDepth: 64, MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cols := [][]int64{
		hwstar.GenUniform(41, 1<<14, 100000),
		hwstar.GenUniform(42, 1<<14, 1000),
	}
	if err := srv.Register("facts", cols); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := srv.Submit(context.Background(), hwstar.Request{
			Op: hwstar.OpScan, Table: "facts",
			Query: hwstar.ScanQuery{FilterCol: 0, Lo: 0, Hi: 50000, AggCol: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(newDebugMux(srv.Metrics()))
	defer ts.Close()

	get := func(path string) (string, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metricsBody, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE serve_admitted counter",
		"serve_admitted 24",
		"# TYPE serve_latency_ms summary",
		`serve_latency_ms{quantile="0.99"}`,
		"serve_latency_ms_count 24",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}

	varsBody, _ := get("/debug/vars")
	var vars struct {
		Hwserve struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"hwserve"`
	}
	if err := json.Unmarshal([]byte(varsBody), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Hwserve.Counters["serve.admitted"] != 24 {
		t.Fatalf("/debug/vars hwserve counters: %+v", vars.Hwserve.Counters)
	}

	pprofBody, _ := get("/debug/pprof/")
	if !strings.Contains(pprofBody, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles:\n%s", pprofBody)
	}
}

// TestRunWithTracing samples every request and checks the report carries
// rendered span trees with the lifecycle stages.
func TestRunWithTracing(t *testing.T) {
	cfg := smallConfig()
	cfg.TraceEvery = 1
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.tracesStarted != uint64(cfg.Clients*cfg.Requests) {
		t.Fatalf("traced %d requests, want %d", r.tracesStarted, cfg.Clients*cfg.Requests)
	}
	if len(r.traces) == 0 {
		t.Fatal("no traces retained")
	}
	var sb strings.Builder
	r.print(&sb, cfg)
	out := sb.String()
	for _, want := range []string{"span trees", "request:scan", "queue", "execute"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunListen smoke-tests the -listen path end to end: run() binds the
// port, serves during the run, and reports the address.
func TestRunListen(t *testing.T) {
	cfg := smallConfig()
	cfg.Listen = "127.0.0.1:0"
	r, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.listenAddr == "" {
		t.Fatal("no listen address reported")
	}
	var sb strings.Builder
	r.print(&sb, cfg)
	if !strings.Contains(sb.String(), "debug endpoints served on") {
		t.Fatalf("report missing endpoint notice:\n%s", sb.String())
	}
}

// TestListenerTimeouts pins the hardening every listener shares: no timeout
// is left at zero (unbounded), and the write bound leaves room for pprof's
// default 30 s CPU profile.
func TestListenerTimeouts(t *testing.T) {
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("unbounded listener timeout: header %v read %v write %v idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout <= 30*time.Second {
		t.Fatalf("write timeout %v would refuse /debug/pprof/profile's default 30s", hs.WriteTimeout)
	}
}
