package experiments

import "testing"

// TestE26GatesHold runs the sharded-tier experiment at small scale and
// checks the acceptance gates the full run enforces: zero lost committed
// answers across the kill/failover cycles, every total-replica-loss trial
// a typed exact partial (no silent wrong sums), and distributed joins
// exact against single-node truth. runE26Bench itself errors when one of these
// fails, so the main assertion is err == nil. The hedge p99 ratio is host
// wall time: reported in the result, asserted nowhere in tier-1.
func TestE26GatesHold(t *testing.T) {
	b, tables, err := runE26Bench(Config{Scale: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("got %d tables, want 4", len(tables))
	}
	if b.Failover.LostAnswers != 0 {
		t.Fatalf("lost %d committed answers", b.Failover.LostAnswers)
	}
	if b.Failover.NodeKills != b.Failover.Cycles {
		t.Fatalf("kills %d != cycles %d", b.Failover.NodeKills, b.Failover.Cycles)
	}
	if b.Failover.Rereplications == 0 {
		t.Fatal("recovery never re-replicated")
	}
	if b.Partial.SilentWrongSums != 0 || b.Partial.TypedPartials != b.Partial.Trials {
		t.Fatalf("partial contract: %+v", b.Partial)
	}
	if b.Partial.MinCoveredFrac <= 0 || b.Partial.MinCoveredFrac >= 1 {
		t.Fatalf("covered fraction %v outside (0,1)", b.Partial.MinCoveredFrac)
	}
	for _, p := range b.Strategies {
		if !p.Exact {
			t.Fatalf("inexact distributed join: %+v", p)
		}
		if p.Chosen != "shuffle" && p.Chosen != "broadcast" {
			t.Fatalf("unknown strategy %q", p.Chosen)
		}
	}
}
