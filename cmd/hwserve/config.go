package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hwstar"
	"hwstar/internal/hw"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("2ms", "1.5s") and unmarshals from either a string or a nanosecond
// number, so config files read naturally.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "200us"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", x, err)
		}
		*d = Duration(parsed)
		return nil
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	default:
		return fmt.Errorf("bad duration value %v (want string or number)", v)
	}
}

// Config is hwserve's whole configuration surface: one struct, loadable from
// a JSON file (-config server.json) with individual flags overriding file
// values. Field JSON tags are the file format; the flag set in bindFlags is
// the command-line format; DefaultConfig is the single source of defaults
// for both.
type Config struct {
	// Machine and synthetic-workload shape (load-generator mode).
	Machine  string `json:"machine"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`
	Rows     int    `json:"rows"`
	Mix      string `json:"mix"` // "scan" or "mixed"

	// Serving policy.
	Queue    int      `json:"queue"`
	MaxBatch int      `json:"max_batch"`
	Deadline Duration `json:"deadline"`

	// Sharded serving tier: Shards > 1 runs that many serve.Server shards
	// behind a consistent-hash router with Replicas-way replication,
	// replica failover, and hedged dispatch (see internal/shard). Shards
	// 0/1 is the classic single-server mode. With -data-dir each shard
	// gets its own node-N subdirectory, so node recovery re-replicates
	// from the surviving replicas' durable stores.
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`

	// Memory governance (zero budget disables the governor).
	MemBudget int64 `json:"mem_budget_bytes"`
	MemQuery  int64 `json:"mem_query_bytes"`
	OOMKill   bool  `json:"oom_kill"`

	// Fault injection (zero probabilities disable the injector).
	FaultSeed     int64   `json:"fault_seed"`
	PanicProb     float64 `json:"panic_prob"`
	TransientProb float64 `json:"transient_prob"`
	StragglerProb float64 `json:"straggler_prob"`
	StragglerSkew float64 `json:"straggler_skew"`
	AllocFailProb float64 `json:"alloc_fail_prob"`
	// NodeLossProb arms the router's chaos loop (needs Shards > 1): each
	// tick draws a seeded node kill per live node, never killing the last
	// one, and recovers dead nodes on the following tick.
	NodeLossProb float64 `json:"node_loss_prob"`

	// Resilience policy.
	Retries  int      `json:"retries"`
	Backoff  Duration `json:"backoff"`
	Breaker  int      `json:"breaker"`
	Cooldown Duration `json:"cooldown"`

	// Durable storage (both modes): DataDir arms the checkpointed store —
	// the server replays committed state at boot and flushes on shutdown.
	// CheckpointInterval adds background checkpoints; HotBytes caps the
	// DRAM-resident hot set (0 = everything hot, nothing tiered to flash).
	DataDir            string   `json:"data_dir"`
	CheckpointInterval Duration `json:"checkpoint_interval"`
	HotBytes           int64    `json:"hot_bytes"`

	// Observability.
	Listen     string `json:"listen"`
	TraceEvery int    `json:"trace_every"`

	// Network API (server mode): ServeAPI mounts the /v1 multi-tenant API
	// plus the debug endpoints on the given address and serves until
	// SIGINT/SIGTERM instead of running the synthetic client cohort.
	ServeAPI     string                `json:"serve_api"`
	SessionTTL   Duration              `json:"session_ttl"`
	QueryTimeout Duration              `json:"query_timeout"`
	Tenants      []hwstar.TenantConfig `json:"tenants"`
}

// DefaultConfig returns the defaults every run starts from.
func DefaultConfig() Config {
	return Config{
		Machine:       "server-2s8c",
		Clients:       64,
		Requests:      10,
		Rows:          1 << 20,
		Mix:           "scan",
		Queue:         256,
		MaxBatch:      1024,
		FaultSeed:     1,
		StragglerSkew: 8,
		Backoff:       Duration(200 * time.Microsecond),
		Cooldown:      Duration(10 * time.Millisecond),
		SessionTTL:    Duration(time.Hour),
	}
}

// Validate rejects configurations the run loop cannot execute. Tenant
// validation is left to frontend.New, which owns those rules.
func (c *Config) Validate() error {
	if _, ok := hw.Profiles()[c.Machine]; !ok {
		return fmt.Errorf("unknown machine %q", c.Machine)
	}
	if c.Mix != "scan" && c.Mix != "mixed" {
		return fmt.Errorf("unknown mix %q (want scan or mixed)", c.Mix)
	}
	if c.Clients < 1 || c.Requests < 0 || c.Rows < 1 {
		return fmt.Errorf("clients/requests/rows out of range: %d/%d/%d", c.Clients, c.Requests, c.Rows)
	}
	if c.ServeAPI != "" && len(c.Tenants) == 0 {
		return fmt.Errorf("-serve-api needs at least one tenant (configure tenants in -config)")
	}
	if c.Shards < 0 || c.Replicas < 0 {
		return fmt.Errorf("negative shards/replicas: %d/%d", c.Shards, c.Replicas)
	}
	if c.Shards <= 1 {
		if c.Replicas > 1 {
			return fmt.Errorf("-replicas %d needs -shards > 1", c.Replicas)
		}
		if c.NodeLossProb > 0 {
			return fmt.Errorf("-node-loss-prob needs -shards > 1")
		}
	}
	if c.Replicas > c.Shards && c.Shards > 1 {
		return fmt.Errorf("-replicas %d exceeds -shards %d", c.Replicas, c.Shards)
	}
	if c.DataDir == "" {
		if c.CheckpointInterval > 0 {
			return fmt.Errorf("-checkpoint-interval needs -data-dir")
		}
		if c.HotBytes > 0 {
			return fmt.Errorf("-hot-bytes needs -data-dir")
		}
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("negative checkpoint interval %s", time.Duration(c.CheckpointInterval))
	}
	return nil
}

func (c *Config) faulty() bool {
	return c.PanicProb > 0 || c.TransientProb > 0 || c.StragglerProb > 0 || c.AllocFailProb > 0
}

// Print dumps the effective configuration as indented JSON — the exact
// format -config accepts, so `-print-config > server.json` round-trips.
func (c *Config) Print(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// loadConfigFile overlays path's JSON onto *c (strict: unknown fields are
// errors, catching typos rather than silently ignoring them).
func loadConfigFile(path string, c *Config) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	return nil
}

// bindFlags registers every flag against fields of cfg.
func bindFlags(fs *flag.FlagSet, cfg *Config) {
	fs.StringVar(&cfg.Machine, "machine", cfg.Machine, "machine profile name")
	fs.IntVar(&cfg.Clients, "clients", cfg.Clients, "concurrent clients")
	fs.IntVar(&cfg.Requests, "requests", cfg.Requests, "requests per client")
	fs.IntVar(&cfg.Rows, "rows", cfg.Rows, "fact table rows")
	fs.StringVar(&cfg.Mix, "mix", cfg.Mix, "workload mix: scan or mixed")
	fs.IntVar(&cfg.Queue, "queue", cfg.Queue, "intake queue depth")
	fs.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "max queries per shared scan")
	fs.DurationVar((*time.Duration)(&cfg.Deadline), "deadline", time.Duration(cfg.Deadline), "per-request deadline (0 = none)")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "shard count of the replicated serving tier (0 or 1 = single server)")
	fs.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "replicas per partition in the sharded tier (0 = default 2; needs -shards > 1)")
	fs.Int64Var(&cfg.MemBudget, "mem-budget", cfg.MemBudget, "server-wide memory budget in bytes for joins and grouped aggregations (0 = ungoverned)")
	fs.Int64Var(&cfg.MemQuery, "mem-query", cfg.MemQuery, "default per-query reservation in bytes (0 = budget/4)")
	fs.BoolVar(&cfg.OOMKill, "oom-kill", cfg.OOMKill, "naive mode: allocate past the budget, then kill the query (instead of spilling)")
	fs.Int64Var(&cfg.FaultSeed, "fault-seed", cfg.FaultSeed, "fault injector seed")
	fs.Float64Var(&cfg.PanicProb, "panic-prob", cfg.PanicProb, "per-task injected panic probability")
	fs.Float64Var(&cfg.TransientProb, "transient-prob", cfg.TransientProb, "per-task injected transient-failure probability")
	fs.Float64Var(&cfg.StragglerProb, "straggler-prob", cfg.StragglerProb, "per-worker straggler probability")
	fs.Float64Var(&cfg.StragglerSkew, "straggler-skew", cfg.StragglerSkew, "cycle multiplier for straggling workers")
	fs.Float64Var(&cfg.AllocFailProb, "alloc-fail-prob", cfg.AllocFailProb, "per-charge injected allocation-failure probability")
	fs.Float64Var(&cfg.NodeLossProb, "node-loss-prob", cfg.NodeLossProb, "per-tick node-kill probability of the router's chaos loop (needs -shards > 1)")
	fs.IntVar(&cfg.Retries, "retries", cfg.Retries, "morsel-level retries per request (0 = retry-free)")
	fs.DurationVar((*time.Duration)(&cfg.Backoff), "backoff", time.Duration(cfg.Backoff), "base retry backoff (doubles per attempt, jittered)")
	fs.IntVar(&cfg.Breaker, "breaker", cfg.Breaker, "consecutive failures tripping the circuit breaker (0 = no breaker)")
	fs.DurationVar((*time.Duration)(&cfg.Cooldown), "cooldown", time.Duration(cfg.Cooldown), "breaker cooldown before a half-open probe")
	fs.StringVar(&cfg.DataDir, "data-dir", cfg.DataDir, "durable store directory: replay committed state at boot, flush on shutdown (empty = memory-only)")
	fs.DurationVar((*time.Duration)(&cfg.CheckpointInterval), "checkpoint-interval", time.Duration(cfg.CheckpointInterval), "background checkpoint period (0 = flush only on shutdown; needs -data-dir)")
	fs.Int64Var(&cfg.HotBytes, "hot-bytes", cfg.HotBytes, "DRAM budget for the store's hot set in bytes; overflow tiers to flash, loaded on first access (0 = all hot)")
	fs.StringVar(&cfg.Listen, "listen", cfg.Listen, "serve /metrics, /debug/vars, and /debug/pprof on this address during the run (empty = off)")
	fs.IntVar(&cfg.TraceEvery, "trace-every", cfg.TraceEvery, "trace every Nth request and dump span trees after the report (0 = off)")
	fs.StringVar(&cfg.ServeAPI, "serve-api", cfg.ServeAPI, "serve the /v1 multi-tenant HTTP API on this address until interrupted (empty = load-generator mode)")
	fs.DurationVar((*time.Duration)(&cfg.SessionTTL), "session-ttl", time.Duration(cfg.SessionTTL), "API session token lifetime")
	fs.DurationVar((*time.Duration)(&cfg.QueryTimeout), "query-timeout", time.Duration(cfg.QueryTimeout), "per-query timeout imposed by the API (0 = none)")
}

// parseConfig resolves the effective Config: defaults, then the -config
// file, then explicitly set flags — the conventional precedence, so a file
// captures a deployment and flags tweak one run of it.
func parseConfig(args []string) (cfg Config, printOnly bool, err error) {
	fs := flag.NewFlagSet("hwserve", flag.ContinueOnError)
	var configPath string
	fs.StringVar(&configPath, "config", "", "JSON config file (flags set explicitly override file values)")
	fs.BoolVar(&printOnly, "print-config", false, "print the effective configuration as JSON and exit")

	flagCfg := DefaultConfig()
	bindFlags(fs, &flagCfg)
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}

	if configPath == "" {
		return flagCfg, printOnly, nil
	}
	cfg = DefaultConfig()
	if err := loadConfigFile(configPath, &cfg); err != nil {
		fmt.Fprintln(fs.Output(), err) // as loud as the flag errors Parse reports itself
		return cfg, false, err
	}
	// Re-apply every flag the command line set explicitly on top of the
	// file. Binding a second throwaway flag set to &cfg reuses the same
	// name→field wiring without a hand-written per-field copy table.
	override := flag.NewFlagSet("hwserve-override", flag.ContinueOnError)
	bindFlags(override, &cfg)
	fs.Visit(func(f *flag.Flag) {
		if g := override.Lookup(f.Name); g != nil {
			_ = g.Value.Set(f.Value.String())
		}
	})
	return cfg, printOnly, nil
}
