// Package errs defines the sentinel errors shared across hwstar's layers.
// The public façade re-exports them (hwstar.ErrInvalidInput, ...), and the
// internal packages wrap them with %w so callers can classify failures with
// errors.Is regardless of which layer produced them — admission control in
// internal/serve, validation in internal/join and internal/scan, or engine
// construction in the façade.
package errs

import "errors"

// Sentinel errors. Wrap with fmt.Errorf("...: %w", Err...) to add detail
// while keeping errors.Is classification working.
var (
	// ErrNilMachine reports an engine or server built without a machine
	// profile.
	ErrNilMachine = errors.New("machine must not be nil")
	// ErrWorkersOutOfRange reports a worker count outside 1..machine cores.
	ErrWorkersOutOfRange = errors.New("worker count out of range")
	// ErrInvalidInput reports malformed operator input: ragged key/value
	// slices, out-of-range columns, empty ranges, unknown algorithm or
	// strategy names.
	ErrInvalidInput = errors.New("invalid input")
	// ErrOverloaded reports an admission-control rejection: the server's
	// bounded intake queue is full. Clients should back off and retry.
	ErrOverloaded = errors.New("server overloaded")
	// ErrClosed reports a request submitted to a closed server.
	ErrClosed = errors.New("server closed")
	// ErrWorkerPanic reports a panic inside a scheduled task. The scheduler
	// recovers it, captures the stack, and either isolates the failure
	// (retiring the worker and re-dispatching its morsels) or surfaces it
	// wrapped around this sentinel.
	ErrWorkerPanic = errors.New("worker panic")
	// ErrTransient reports a transient task failure (injected or real) that
	// is safe to retry: the morsel had no partial effect. The serving layer
	// retries these with bounded exponential backoff.
	ErrTransient = errors.New("transient failure")
	// ErrDegraded reports that a server's circuit breaker is open and the
	// request was shed. Unlike ErrOverloaded (queue full), ErrDegraded means
	// the server is failing, not merely busy; scan requests are still served
	// from a reduced worker budget instead of being shed.
	ErrDegraded = errors.New("server degraded")
	// ErrMemoryPressure reports that a memory request could not be granted
	// under the engine's byte budget: admission shed the query, an operator's
	// reservation could not grow, or an injected allocation fault fired.
	// Retryable — pressure subsides as concurrent queries release memory.
	ErrMemoryPressure = errors.New("memory pressure")
	// ErrOOMKilled reports the simulated out-of-memory kill an ungoverned
	// engine suffers when its total footprint exceeds physical memory. Unlike
	// ErrMemoryPressure it is fatal, not retryable: the naive engine in E22
	// dies this way, the governed engine never does.
	ErrOOMKilled = errors.New("oom killed")
	// ErrCorrupted reports durable state that failed validation: a segment or
	// manifest whose checksum does not match its payload, a torn write, or a
	// truncated file. Not retryable — the bytes on disk are wrong and will
	// stay wrong; recovery falls back to the last manifest version that
	// validates end to end.
	ErrCorrupted = errors.New("corrupted data")
	// ErrPartialResult reports that a distributed query could not reach every
	// replica of every key range — typically because a range lost all its
	// replicas at once — and the response carries an exact answer over the
	// covered fraction only. The result is never a silent wrong total: the
	// router marks the response Partial, reports CoveredFraction, and wraps
	// this sentinel so callers can distinguish "partial but correct over what
	// survived" from a full answer. Retryable once recovery re-replicates the
	// lost range.
	ErrPartialResult = errors.New("partial result")
)
