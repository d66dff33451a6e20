package breaker

import (
	"testing"
	"time"
)

// TestTripProbeClose walks the cycle on an explicit clock: threshold
// failures open it, the cooldown admits a probe, a success closes it and
// ends the streak, Reset forgets the streak but keeps the trip count.
func TestTripProbeClose(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := New(2, time.Second)
	if b.OnFailure(t0) {
		t.Fatal("tripped below threshold")
	}
	if _, open, _ := b.Snapshot(); !b.Allow(t0) || open {
		t.Fatal("closed breaker refused or reported open")
	}
	if !b.OnFailure(t0) {
		t.Fatal("threshold failure did not trip")
	}
	if _, open, _ := b.Snapshot(); b.Allow(t0.Add(999*time.Millisecond)) || !open {
		t.Fatal("open breaker allowed inside the cooldown")
	}
	if !b.Allow(t0.Add(time.Second)) {
		t.Fatal("no half-open probe after the cooldown")
	}
	b.OnSuccess()
	if consec, open, trips := b.Snapshot(); consec != 0 || open || trips != 1 {
		t.Fatalf("after success: consec %d open %v trips %d", consec, open, trips)
	}
	b.OnFailure(t0)
	b.OnFailure(t0)
	b.Reset()
	if consec, open, trips := b.Snapshot(); consec != 0 || open || trips != 2 {
		t.Fatalf("after reset: consec %d open %v trips %d", consec, open, trips)
	}
	if !b.Allow(t0) {
		t.Fatal("reset breaker refused")
	}
}

// TestFailedProbeRearmsCooldown pins the half-open rule: a probe that fails
// restarts the cooldown from the probe, so a target that fails every probe
// is refused between probes for as long as it keeps failing — it does not
// read as allowed forever once the first cooldown has passed.
func TestFailedProbeRearmsCooldown(t *testing.T) {
	const cooldown = time.Second
	now := time.Unix(1000, 0)
	b := New(1, cooldown)
	if !b.OnFailure(now) {
		t.Fatal("did not trip")
	}
	for probe := 1; probe <= 3; probe++ {
		now = now.Add(cooldown)
		if !b.Allow(now) {
			t.Fatalf("probe %d not admitted after a full cooldown", probe)
		}
		if b.OnFailure(now) {
			t.Fatalf("failed probe %d counted as a new trip", probe)
		}
		if b.Allow(now.Add(cooldown - time.Nanosecond)) {
			t.Fatalf("failed probe %d did not re-arm the cooldown", probe)
		}
	}
	if consec, open, trips := b.Snapshot(); consec != 4 || !open || trips != 1 {
		t.Fatalf("consec %d open %v trips %d, want 4 true 1", consec, open, trips)
	}
}
