// Package breaker is the consecutive-failure circuit breaker the shard
// router keeps per node. It holds the mechanism only: threshold consecutive
// failures open it, a cooldown later requests pass half-open until one
// succeeds (closing it) or fails (re-arming the cooldown). What an open
// breaker means is the router's policy: its candidates only sorts such a node
// after its healthy replicas and never drops it, because a breaker must not
// turn "slow node" into "lost range".
package breaker

import (
	"sync"
	"time"
)

// Breaker is safe for concurrent use. Its mutex is a leaf: no method calls
// out while holding it. Callers pass the clock in, so tests drive the
// cooldown without sleeping.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	consec   int
	open     bool
	openedAt time.Time
	trips    int64
}

// New returns a closed breaker that opens after threshold consecutive
// failures and lets probes through once cooldown has passed since it opened
// or since the last failed probe.
func New(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a request may pass: always when closed, and as a
// half-open probe once the cooldown has elapsed.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open || now.Sub(b.openedAt) >= b.cooldown
}

// OnSuccess ends the failure streak and closes the breaker.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	b.consec = 0
	b.open = false
	b.mu.Unlock()
}

// OnFailure extends the failure streak and reports whether this failure
// tripped the breaker open. A failure while open is a failed half-open
// probe: it re-arms the cooldown from now.
func (b *Breaker) OnFailure(now time.Time) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec++
	if b.open {
		b.openedAt = now
		return false
	}
	if b.consec >= b.threshold {
		b.open = true
		b.openedAt = now
		b.trips++
		return true
	}
	return false
}

// Snapshot returns the current failure streak, position and lifetime trips.
func (b *Breaker) Snapshot() (consec int, open bool, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consec, b.open, b.trips
}

// Reset closes the breaker and forgets the streak (a recovered node starts
// clean); lifetime trips are kept.
func (b *Breaker) Reset() {
	b.mu.Lock()
	b.consec, b.open, b.openedAt = 0, false, time.Time{}
	b.mu.Unlock()
}
