package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hwstar"
)

// TestDurationJSON pins the Duration wire forms: string in, string out,
// nanosecond numbers accepted, junk rejected.
func TestDurationJSON(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want time.Duration
		bad  bool
	}{
		{"string form", `"2ms"`, 2 * time.Millisecond, false},
		{"composite string", `"1.5s"`, 1500 * time.Millisecond, false},
		{"nanosecond number", `2000000`, 2 * time.Millisecond, false},
		{"zero", `"0s"`, 0, false},
		{"bad string", `"fortnight"`, 0, true},
		{"bad type", `{"ns": 5}`, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var d Duration
			err := json.Unmarshal([]byte(c.in), &d)
			if c.bad {
				if err == nil {
					t.Fatalf("unmarshal %s succeeded as %v", c.in, time.Duration(d))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if time.Duration(d) != c.want {
				t.Fatalf("unmarshal %s = %v, want %v", c.in, time.Duration(d), c.want)
			}
			// Round-trip: the marshaled form re-parses to the same value.
			out, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			var d2 Duration
			if err := json.Unmarshal(out, &d2); err != nil || d2 != d {
				t.Fatalf("round-trip %s -> %s -> %v (err %v)", c.in, out, time.Duration(d2), err)
			}
		})
	}
}

// writeConfig drops a JSON config file into a test temp dir.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "server.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseConfigFlagsOnly pins the no-file path: defaults plus explicit
// flags.
func TestParseConfigFlagsOnly(t *testing.T) {
	cfg, printOnly, err := parseConfig([]string{
		"-clients", "8", "-max-batch", "32", "-trace-every", "5", "-deadline", "3ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if printOnly {
		t.Fatal("printOnly without -print-config")
	}
	want := DefaultConfig()
	want.Clients = 8
	want.MaxBatch = 32
	want.TraceEvery = 5
	want.Deadline = Duration(3 * time.Millisecond)
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("cfg = %+v\nwant %+v", cfg, want)
	}
}

// TestParseConfigPrecedence pins defaults < file < explicit flags.
func TestParseConfigPrecedence(t *testing.T) {
	path := writeConfig(t, `{
		"clients": 16,
		"rows": 4096,
		"max_batch": 64,
		"fault_seed": 4,
		"deadline": 2000000,
		"tenants": [{"id": "a", "key": "ka"}]
	}`)
	cfg, _, err := parseConfig([]string{
		"-config", path,
		"-clients", "99", // explicit flag beats the file
		"-max-batch", "128",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Clients != 99 {
		t.Fatalf("Clients = %d, want flag override 99", cfg.Clients)
	}
	if cfg.MaxBatch != 128 {
		t.Fatalf("MaxBatch = %d, want flag override 128", cfg.MaxBatch)
	}
	if cfg.Rows != 4096 {
		t.Fatalf("Rows = %d, want file value 4096", cfg.Rows)
	}
	if cfg.FaultSeed != 4 {
		t.Fatalf("FaultSeed = %d, want file value 4", cfg.FaultSeed)
	}
	if cfg.Deadline != Duration(2*time.Millisecond) {
		t.Fatalf("Deadline = %v, want numeric-ns file value 2ms", time.Duration(cfg.Deadline))
	}
	if cfg.Queue != DefaultConfig().Queue {
		t.Fatalf("Queue = %d, want untouched default %d", cfg.Queue, DefaultConfig().Queue)
	}
	if len(cfg.Tenants) != 1 || cfg.Tenants[0].ID != "a" {
		t.Fatalf("Tenants = %+v, want the file's tenant a", cfg.Tenants)
	}
}

// TestLoadConfigFileStrict pins typo-catching: unknown fields are errors,
// not silently dropped.
func TestLoadConfigFileStrict(t *testing.T) {
	path := writeConfig(t, `{"cleints": 8}`)
	c := DefaultConfig()
	if err := loadConfigFile(path, &c); err == nil {
		t.Fatal("misspelled field accepted")
	}
	if _, _, err := parseConfig([]string{"-config", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing config file accepted")
	}
	// The scan-path knobs, the pre-Config aliases, the serve breaker's knobs,
	// the serve retry loop's knobs and the per-query memory reservation are
	// gone, not ignored: a stale flag or config key fails loudly instead of
	// silently selecting nothing.
	for _, flag := range []string{"-vectorized", "-vec-adaptive", "-vec-morsel-rows=8192", "-vec-batch-width=8", "-maxbatch=32", "-trace=5", "-breaker=3", "-cooldown=10ms", "-retries=2", "-backoff=1ms", "-mem-query=4096"} {
		if _, _, err := parseConfig([]string{flag}); err == nil {
			t.Fatalf("removed flag %s accepted", flag)
		}
	}
	for _, key := range []string{`{"vectorized": true}`, `{"breaker": 3}`, `{"cooldown": "10ms"}`, `{"retries": 2}`, `{"backoff": "1ms"}`, `{"mem_query_bytes": 4096}`} {
		if err := loadConfigFile(writeConfig(t, key), &c); err == nil {
			t.Fatalf("removed config key %s accepted", key)
		}
	}
}

// TestConfigRejectsRemovedWindowKey pins the batching window's removal: a
// deployment file (or command line) that still sets it fails loudly, naming
// the key, instead of running with a setting that no longer exists.
func TestConfigRejectsRemovedWindowKey(t *testing.T) {
	c := DefaultConfig()
	err := loadConfigFile(writeConfig(t, `{"clients": 8, "window": "2ms"}`), &c)
	if err == nil || !strings.Contains(err.Error(), `"window"`) {
		t.Fatalf(`config with "window": err = %v, want one naming the key`, err)
	}
	if _, _, err := parseConfig([]string{"-window", "2ms"}); err == nil {
		t.Fatal("removed flag -window accepted")
	}
	var buf bytes.Buffer
	if err := c.Print(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "window") {
		t.Fatalf("-print-config still prints a window:\n%s", buf.String())
	}
}

// TestPrintConfigRoundTrips pins the -print-config contract: the printed
// JSON is exactly the format -config accepts, and re-loading it reproduces
// the same effective Config.
func TestPrintConfigRoundTrips(t *testing.T) {
	cfg, printOnly, err := parseConfig([]string{
		"-print-config",
		"-clients", "3",
		"-deadline", "7ms",
		"-serve-api", "127.0.0.1:0",
		"-data-dir", "/tmp/hwserve-data",
		"-checkpoint-interval", "250ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !printOnly {
		t.Fatal("-print-config not reported")
	}
	cfg.Tenants = []hwstar.TenantConfig{{ID: "a", Key: "ka", Priority: "batch", Burst: 4}}

	var buf bytes.Buffer
	if err := cfg.Print(&buf); err != nil {
		t.Fatal(err)
	}
	path := writeConfig(t, buf.String())
	reloaded := DefaultConfig()
	if err := loadConfigFile(path, &reloaded); err != nil {
		t.Fatalf("printed config does not re-load: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(cfg, reloaded) {
		t.Fatalf("round-trip drift:\nprinted  %+v\nreloaded %+v", cfg, reloaded)
	}
	if reloaded.CheckpointInterval != Duration(250*time.Millisecond) {
		t.Fatalf("CheckpointInterval = %v after round-trip, want 250ms", time.Duration(reloaded.CheckpointInterval))
	}
}

// TestStorageConfigPrecedence pins the storage fields through the
// defaults < file < explicit flags chain: -data-dir on the command line
// overrides the file's directory while the file's checkpoint interval stays
// in force.
func TestStorageConfigPrecedence(t *testing.T) {
	path := writeConfig(t, `{
		"data_dir": "/var/lib/hwserve",
		"checkpoint_interval": "5s"
	}`)
	cfg, _, err := parseConfig([]string{
		"-config", path,
		"-data-dir", "/mnt/fast/hwserve",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DataDir != "/mnt/fast/hwserve" {
		t.Fatalf("DataDir = %q, want flag override /mnt/fast/hwserve", cfg.DataDir)
	}
	if cfg.CheckpointInterval != Duration(5*time.Second) {
		t.Fatalf("CheckpointInterval = %v, want file value 5s", time.Duration(cfg.CheckpointInterval))
	}
	if def := DefaultConfig(); def.DataDir != "" || def.CheckpointInterval != 0 {
		t.Fatalf("storage defaults not off: %+v", def)
	}
}

// TestValidate pins the rejection rules the run loop depends on.
func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"defaults", func(c *Config) {}, true},
		{"unknown machine", func(c *Config) { c.Machine = "abacus" }, false},
		{"bad mix", func(c *Config) { c.Mix = "shaken" }, false},
		{"zero clients", func(c *Config) { c.Clients = 0 }, false},
		{"zero rows", func(c *Config) { c.Rows = 0 }, false},
		{"serve_api without tenants", func(c *Config) { c.ServeAPI = ":0" }, false},
		{"serve_api with tenants", func(c *Config) {
			c.ServeAPI = ":0"
			c.Tenants = []hwstar.TenantConfig{{ID: "a", Key: "k"}}
		}, true},
		{"checkpoint interval without data dir", func(c *Config) {
			c.CheckpointInterval = Duration(time.Second)
		}, false},
		{"negative checkpoint interval", func(c *Config) {
			c.DataDir = "d"
			c.CheckpointInterval = Duration(-time.Second)
		}, false},
		{"data dir with interval and budget", func(c *Config) {
			c.DataDir = "d"
			c.CheckpointInterval = Duration(time.Second)
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			err := cfg.Validate()
			if c.ok && err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}
