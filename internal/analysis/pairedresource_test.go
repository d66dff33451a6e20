package analysis_test

import (
	"strings"
	"testing"

	"hwstar/internal/analysis"
	"hwstar/internal/analysis/analysistest"
)

func TestPairedResource(t *testing.T) {
	analysistest.Run(t, "testdata/pairedresource", "hwstar/internal/serve", analysis.PairedResource)
}

// The implementor exemption is per resource kind, not per package: trace
// manipulates its own spans freely (the ring recycles them) — but each
// package is still held to every *other* package's pairs.

func TestPairedResourceImplementorExemption(t *testing.T) {
	for _, d := range runOn(t, "testdata/pairedresource", "hwstar/internal/trace", analysis.PairedResource) {
		if strings.Contains(d.Message, "Span.End") {
			t.Fatalf("trace's own Span pair fired inside trace: %v", d)
		}
	}
}

// TestPairedResourceShardImplementorExemption: the Router pair added for
// PR 9 must not fire inside shard itself, while the stdlib Timer/Ticker
// pair still does.
func TestPairedResourceShardImplementorExemption(t *testing.T) {
	var tickerFired bool
	for _, d := range runOn(t, "testdata/pairedresource", "hwstar/internal/shard", analysis.PairedResource) {
		if strings.Contains(d.Message, "Router.Close") {
			t.Fatalf("shard's own Router pair fired inside shard: %v", d)
		}
		if strings.Contains(d.Message, "Ticker.Stop") {
			tickerFired = true
		}
	}
	if !tickerFired {
		t.Fatal("the stdlib Ticker pair went silent inside shard")
	}
}
