package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hwstar"
	v1 "hwstar/internal/frontend/v1"
	"hwstar/internal/hw"
)

// stack is the system under test for one workload: the product tiers built
// in-process exactly as cmd/hwserve's serveAPI / serveAPICluster mount
// them, the data they serve, and the oracle-checked query pool.
type stack struct {
	spec    workloadSpec
	tenant  hwstar.TenantConfig
	machine *hwstar.Machine

	router   *hwstar.Router // backend "router"
	server   *hwstar.Server // backend "server"
	store    *hwstar.Store  // durable workloads
	storeDir string
	backend  hwstar.FrontendBackend
	srvOpts  hwstar.ServerOptions
	lineitem map[string]*hwstar.Table

	plain  *endpoint // the product as hwserve mounts it; all end-to-end numbers
	traced *endpoint // the same backend behind the benchmark's span wrappers

	// versions are the table's live datasets: one, or the two that
	// durable_churn alternates. unacked is the dataset registered without a
	// checkpoint before the restarts; it must never be served by one.
	versions [][][]int64
	unacked  [][]int64
	pool     []query

	registerMs float64 // wall time of registering the table during set-up
}

// endpoint is one frontend on its own loopback listener.
type endpoint struct {
	srv  *http.Server
	url  string
	done chan error
}

// buildStack generates the workload's inputs from the seed, builds the
// oracle and the pool, boots the product and opens the listener. Its wall
// time is setup_s.
func buildStack(ctx context.Context, suite suiteSpec, spec workloadSpec, cfg config) (*stack, error) {
	m, ok := hw.Profiles()[suite.Machine]
	if !ok {
		return nil, fmt.Errorf("hwperf: unknown machine %q", suite.Machine)
	}
	s := &stack{spec: spec, machine: m}
	if err := json.Unmarshal(suite.Tenant, &s.tenant); err != nil {
		return nil, fmt.Errorf("hwperf: tenant: %w", err)
	}
	if len(spec.Server) > 0 {
		if err := json.Unmarshal(spec.Server, &s.srvOpts); err != nil {
			return nil, fmt.Errorf("hwperf: %s server options: %w", spec.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Inputs and oracle first: the product sees only generated inputs.
	if spec.Table != "" {
		nVersions := 1
		if spec.Durable {
			nVersions = 2
		}
		oracles := make([]*scanOracle, nVersions)
		for v := range oracles {
			cols := genTable(rng, spec.Shape, spec.Rows)
			s.versions = append(s.versions, cols)
			oracles[v] = newScanOracle(cols[0], cols[1])
		}
		if spec.Durable {
			agg := make([]int64, spec.Rows)
			for i, a := range s.versions[0][1] {
				agg[i] = a + unackedShift
			}
			s.unacked = [][]int64{s.versions[0][0], agg}
		}
		s.pool = genScanPool(rng, spec, suite.PoolQueries, oracles...)
	} else {
		li := hwstar.GenLineItem(rng.Int63(), spec.LineitemRows)
		s.lineitem = map[string]*hwstar.Table{"lineitem": li}
		pool, err := genInlinePool(rng, spec, suite.PoolQueries, li)
		if err != nil {
			return nil, err
		}
		s.pool = pool
	}

	if err := s.boot(ctx, cfg); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// boot builds the product tiers, registers the table and opens the plain
// endpoint.
func (s *stack) boot(ctx context.Context, cfg config) error {
	switch s.spec.Backend {
	case "router":
		var ro hwstar.RouterOptions
		if len(s.spec.Router) > 0 {
			if err := json.Unmarshal(s.spec.Router, &ro); err != nil {
				return fmt.Errorf("hwperf: %s router options: %w", s.spec.Name, err)
			}
		}
		ro.Shard = s.srvOpts
		r, err := hwstar.NewRouter(ctx, s.machine, ro)
		if err != nil {
			return err
		}
		s.router, s.backend = r, r
	case "server":
		so := s.srvOpts
		if s.spec.Durable {
			dir, err := os.MkdirTemp(cfg.OutDir, "store-")
			if err != nil {
				return err
			}
			s.storeDir = dir
			st, err := hwstar.OpenStore(hwstar.StoreOptions{Dir: filepath.Join(dir, "live"), Machine: s.machine})
			if err != nil {
				return err
			}
			s.store = st
			so.Store = st
		}
		srv, err := hwstar.NewServer(s.machine, so)
		if err != nil {
			return err
		}
		s.server, s.backend = srv, srv
		if err := srv.WaitRecovered(ctx); err != nil {
			return err
		}
	default:
		return fmt.Errorf("hwperf: %s: unknown backend %q", s.spec.Name, s.spec.Backend)
	}

	if s.spec.Table != "" {
		start := time.Now()
		if err := s.register(s.versions[0]); err != nil {
			return err
		}
		s.registerMs = ms(time.Since(start))
		if s.spec.Durable {
			// Start from a committed state, as a running service would.
			if _, err := s.server.Checkpoint(ctx); err != nil {
				return err
			}
		}
	}

	ep, err := newEndpoint(s, s.backend, nil)
	if err != nil {
		return err
	}
	s.plain = ep
	return nil
}

func (s *stack) register(cols [][]int64) error {
	if s.router != nil {
		return s.router.Register(s.spec.Table, cols)
	}
	return s.server.Register(s.spec.Table, cols)
}

// stripeRows is how many rows of the table one shard scans per pass: the
// first partition's stripe behind a router, the whole table on one server.
func (s *stack) stripeRows() (int, error) {
	if s.router == nil {
		return s.spec.Rows, nil
	}
	parts, err := s.router.Partitions(s.spec.Table)
	if err != nil {
		return 0, err
	}
	return parts[0].Rows, nil
}

// newEndpoint mounts a frontend over backend under /v1/ on an http.Server
// listening on 127.0.0.1:0, as serveAPI does. wrap, when set, decorates
// the frontend's handler (the traced endpoint's frontend.handle span).
func newEndpoint(s *stack, backend hwstar.FrontendBackend, wrap func(http.Handler) http.Handler) (*endpoint, error) {
	fe, err := hwstar.NewFrontend(hwstar.FrontendConfig{
		Backend:   backend,
		Tenants:   []hwstar.TenantConfig{s.tenant},
		Lineitems: s.lineitem,
	})
	if err != nil {
		return nil, err
	}
	h := fe.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{
		srv:  &http.Server{Handler: mux},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ep.done <- ep.srv.Serve(ln) }()
	return ep, nil
}

// close shuts the listener down and waits for Serve to return.
func (ep *endpoint) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := ep.srv.Shutdown(ctx)
	if serveErr := <-ep.done; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// close tears the stack down: listeners, then the product tiers, then the
// store and its directory.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.traced != nil {
		keep(s.traced.close())
	}
	if s.plain != nil {
		keep(s.plain.close())
	}
	if s.router != nil {
		keep(s.router.Close())
	}
	if s.server != nil {
		keep(s.server.Close())
	}
	if s.store != nil {
		keep(s.store.Close())
	}
	if s.storeDir != "" {
		keep(os.RemoveAll(s.storeDir))
	}
	return first
}

// client is one closed-loop caller: its own keep-alive connection and its
// own session.
type client struct {
	http  *http.Client
	url   string
	token string
}

// newClient opens one connection's worth of transport and a /v1/session.
func newClient(ctx context.Context, ep *endpoint, tenant hwstar.TenantConfig) (*client, error) {
	c := &client{
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		url:  ep.url + "/v1/query",
	}
	body, err := json.Marshal(v1.SessionRequest{Tenant: tenant.ID, Key: tenant.Key})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.url+"/v1/session", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("hwperf: open session: %s: %s", resp.Status, raw)
	}
	var sr v1.SessionResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, err
	}
	c.token = sr.Token
	return c, nil
}

func (c *client) close() { c.http.CloseIdleConnections() }

// newClients opens n clients against ep.
func newClients(ctx context.Context, ep *endpoint, tenant hwstar.TenantConfig, n int) ([]*client, error) {
	out := make([]*client, 0, n)
	for i := 0; i < n; i++ {
		c, err := newClient(ctx, ep, tenant)
		if err != nil {
			for _, prev := range out {
				prev.close()
			}
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
