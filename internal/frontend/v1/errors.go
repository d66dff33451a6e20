package v1

import (
	"context"
	"errors"
	"net/http"

	"hwstar/internal/errs"
)

// The closed error-code table. Codes are the stable, machine-readable half
// of the wire error contract: clients switch on Code, never on Message text
// or Go error strings. New codes may be added; existing codes never change
// meaning or HTTP status.
const (
	// CodeInvalidArgument — the request body is malformed or names an
	// unknown op/table/algorithm. HTTP 400. Not retryable.
	CodeInvalidArgument = "INVALID_ARGUMENT"
	// CodeUnauthenticated — missing, unknown, or expired session token, or
	// a bad tenant/key pair at session open. HTTP 401. Not retryable
	// (re-authenticate first).
	CodeUnauthenticated = "UNAUTHENTICATED"
	// CodeNotFound — the named resource (tenant id in /v1/tenants/{id})
	// does not exist. HTTP 404. Not retryable.
	CodeNotFound = "NOT_FOUND"
	// CodeRateLimited — the tenant's token bucket is empty. HTTP 429 with
	// Retry-After. Retryable.
	CodeRateLimited = "RATE_LIMITED"
	// CodeQuotaExceeded — the tenant is at its concurrent-query quota.
	// HTTP 429 with Retry-After. Retryable.
	CodeQuotaExceeded = "QUOTA_EXCEEDED"
	// CodeOverloaded — the server's admission queue is full (errs.
	// ErrOverloaded). HTTP 429 with Retry-After. Retryable.
	CodeOverloaded = "OVERLOADED"
	// CodeMemoryPressure — admission was refused for lack of memory budget,
	// global or tenant-cap (errs.ErrMemoryPressure). HTTP 429 with
	// Retry-After. Retryable.
	CodeMemoryPressure = "MEMORY_PRESSURE"
	// CodeDegraded — no live replica was left to serve the request
	// (errs.ErrDegraded). HTTP 503. Retryable.
	CodeDegraded = "DEGRADED"
	// CodeUnavailable — the server is shutting down (errs.ErrClosed).
	// HTTP 503. Retryable against a replacement instance.
	CodeUnavailable = "UNAVAILABLE"
	// CodeDeadlineExceeded — the request's deadline elapsed before
	// completion. HTTP 504. Retryable with a larger deadline.
	CodeDeadlineExceeded = "DEADLINE_EXCEEDED"
	// CodeInternal — worker panic, simulated OOM kill, or any unclassified
	// failure. HTTP 500. Not retryable.
	CodeInternal = "INTERNAL"
	// CodeDataLoss — durable state failed validation: a segment or manifest
	// checksum mismatch, torn write, or truncated file (errs.ErrCorrupted).
	// HTTP 500. Not retryable: the bytes on disk stay wrong.
	CodeDataLoss = "DATA_LOSS"
)

// CodeFor classifies err against the sentinel taxonomy, returning the wire
// code, the HTTP status it maps to, and whether the failure is retryable.
// A nil error returns ("", 200, false).
func CodeFor(err error) (code string, status int, retryable bool) {
	switch {
	case err == nil:
		return "", http.StatusOK, false
	case errors.Is(err, errs.ErrInvalidInput):
		return CodeInvalidArgument, http.StatusBadRequest, false
	case errors.Is(err, errs.ErrOverloaded):
		return CodeOverloaded, http.StatusTooManyRequests, true
	case errors.Is(err, errs.ErrMemoryPressure):
		return CodeMemoryPressure, http.StatusTooManyRequests, true
	case errors.Is(err, errs.ErrDegraded):
		return CodeDegraded, http.StatusServiceUnavailable, true
	case errors.Is(err, errs.ErrClosed):
		return CodeUnavailable, http.StatusServiceUnavailable, true
	case errors.Is(err, errs.ErrCorrupted):
		return CodeDataLoss, http.StatusInternalServerError, false
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadlineExceeded, http.StatusGatewayTimeout, true
	case errors.Is(err, context.Canceled):
		return CodeDeadlineExceeded, http.StatusGatewayTimeout, false
	default:
		// errs.ErrWorkerPanic, errs.ErrOOMKilled, errs.ErrTransient (only
		// surfaced when a morsel exhausts the scheduler's re-run budget),
		// and anything unclassified.
		return CodeInternal, http.StatusInternalServerError, false
	}
}
