package hwstar

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hwstar/internal/errs"
)

// TestSentinelFacade asserts every sentinel in internal/errs is re-exported
// by the façade as the identical value, so errors.Is classification works
// across the package boundary, including through wrapping.
func TestSentinelFacade(t *testing.T) {
	cases := []struct {
		name     string
		internal error
		public   error
	}{
		{"ErrNilMachine", errs.ErrNilMachine, ErrNilMachine},
		{"ErrWorkersOutOfRange", errs.ErrWorkersOutOfRange, ErrWorkersOutOfRange},
		{"ErrInvalidInput", errs.ErrInvalidInput, ErrInvalidInput},
		{"ErrOverloaded", errs.ErrOverloaded, ErrOverloaded},
		{"ErrClosed", errs.ErrClosed, ErrClosed},
		{"ErrWorkerPanic", errs.ErrWorkerPanic, ErrWorkerPanic},
		{"ErrTransient", errs.ErrTransient, ErrTransient},
		{"ErrDegraded", errs.ErrDegraded, ErrDegraded},
	}
	for _, c := range cases {
		if c.internal != c.public {
			t.Errorf("%s: façade value differs from internal sentinel", c.name)
		}
		wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", c.internal))
		if !errors.Is(wrapped, c.public) {
			t.Errorf("%s: errors.Is fails through wrapping", c.name)
		}
	}
}

// TestFaultErrorsReachClients produces each resilience sentinel through the
// public API: a server whose morsel panics on every worker surfaces
// ErrWorkerPanic, and one whose morsel fails on every draw surfaces
// ErrTransient, each once the scheduler's per-morsel re-run budget is spent;
// a router with no live node left answers ErrDegraded.
func TestFaultErrorsReachClients(t *testing.T) {
	cols := [][]int64{GenUniform(51, 4096, 1000), GenUniform(52, 4096, 100)}
	scanReq := Request{Op: OpScan, Table: "facts", Query: ScanQuery{FilterCol: 0, Lo: 0, Hi: 1000, AggCol: 1}}
	groupReq := Request{Op: OpGroupSum, Keys: cols[0], Vals: cols[1], Strategy: AggRadix}

	newSrv := func(t *testing.T, opts ServerOptions) *Server {
		t.Helper()
		opts.QueueDepth = 8
		opts.MaxBatch = 1
		srv, err := NewServer(Server2S(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.Register("facts", cols); err != nil {
			t.Fatal(err)
		}
		return srv
	}

	t.Run("worker panic", func(t *testing.T) {
		srv := newSrv(t, ServerOptions{
			Faults: NewFaultInjector(FaultConfig{Seed: 1, PanicProb: 1}),
		})
		if _, err := srv.Submit(context.Background(), scanReq); !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("err = %v, want ErrWorkerPanic", err)
		}
	})

	t.Run("transient", func(t *testing.T) {
		srv := newSrv(t, ServerOptions{
			Faults: NewFaultInjector(FaultConfig{Seed: 1, TransientProb: 1}),
		})
		if _, err := srv.Submit(context.Background(), scanReq); !errors.Is(err, ErrTransient) {
			t.Fatalf("err = %v, want ErrTransient", err)
		}
	})

	t.Run("degraded", func(t *testing.T) {
		r, err := NewRouter(context.Background(), Server2S(), RouterOptions{Shards: 2, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		for id := 0; id < 2; id++ {
			if err := r.KillNode(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Submit(context.Background(), groupReq); !errors.Is(err, ErrDegraded) {
			t.Fatalf("err = %v, want ErrDegraded", err)
		}
		if h := r.Health(); h.State != "degraded" {
			t.Fatalf("health state = %q, want degraded", h.State)
		}
	})
}
