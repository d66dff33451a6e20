package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"hwstar"
)

// ckptCycle is one writer iteration: Register(version) then Checkpoint,
// in ns since the run's epoch.
type ckptCycle struct {
	version          int
	regStart, regEnd int64
	ckptEnd          int64
	stats            hwstar.CheckpointStats
}

// churnWriter is durable_churn's write side: one goroutine looping
// Register("events", version k) -> Checkpoint back to back, alternating the
// stack's two pre-generated versions, until halted. Being a closed loop
// like the readers, it slows with them when the host does, which keeps the
// per-query ratios steadier than a fixed checkpoint period did (tried: the
// writer's work per second then stays put while the readers' varies).
type churnWriter struct {
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	cycles []ckptCycle
	err    error
}

// startWriter starts the loop. Version 0 is already registered and
// checkpointed by boot, so the first cycle writes version 1.
func startWriter(ctx context.Context, s *stack, epoch time.Time) *churnWriter {
	w := &churnWriter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for k := 1; ; k++ {
			select {
			case <-w.stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			c := ckptCycle{version: k % len(s.versions), regStart: time.Since(epoch).Nanoseconds()}
			err := s.register(s.versions[c.version])
			c.regEnd = time.Since(epoch).Nanoseconds()
			if err == nil {
				c.stats, err = s.server.Checkpoint(ctx)
			}
			c.ckptEnd = time.Since(epoch).Nanoseconds()
			w.mu.Lock()
			if err != nil {
				w.err = err
				w.mu.Unlock()
				return
			}
			w.cycles = append(w.cycles, c)
			w.mu.Unlock()
		}
	}()
	return w
}

// halt stops the writer after its current cycle and returns the version
// of the last acknowledged checkpoint (0 when no cycle completed: boot's).
func (w *churnWriter) halt() (lastAcked int, err error) {
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.cycles); n > 0 {
		lastAcked = w.cycles[n-1].version
	}
	return lastAcked, w.err
}

// acked returns the acknowledged cycles so far.
func (w *churnWriter) acked() []ckptCycle {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]ckptCycle(nil), w.cycles...)
}

// restartStats is the outcome of reopening a copy of the store n times.
type restartStats struct {
	attempted, failed int
	problems          []string
	recoveryMs        []float64 // OpenStore -> first verified /v1/query answer
	openMs            []float64 // OpenStore alone
	bytesValidated    int64     // per restart
	fallbacks         int       // summed over restarts
}

// restarts registers the unacknowledged version without a checkpoint,
// copies the store directory as it lies on disk, and n times opens a fresh
// copy of that snapshot the way a restarted hwserve would: OpenStore,
// NewServer, WaitRecovered, a frontend on a new listener, a session, one
// query. The answer must be the last acknowledged version's; in particular
// it must never be the unacknowledged one's.
func (s *stack) restarts(ctx context.Context, epoch time.Time, n, lastAcked int) (restartStats, error) {
	var rs restartStats
	if err := s.register(s.unacked); err != nil {
		return rs, err
	}
	snapshot := filepath.Join(s.storeDir, "snapshot")
	if err := copyDir(filepath.Join(s.storeDir, "live"), snapshot); err != nil {
		return rs, err
	}
	dir := filepath.Join(s.storeDir, "restart")
	for i := 0; i < n; i++ {
		if err := copyDir(snapshot, dir); err != nil {
			return rs, err
		}
		q := s.pool[i%len(s.pool)]
		acked := q.want[lastAcked]
		q.want = []int64{acked}
		if err := s.restartOnce(ctx, epoch, dir, &q, &rs); err != nil {
			return rs, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

func (s *stack) restartOnce(ctx context.Context, epoch time.Time, dir string, q *query, rs *restartStats) (err error) {
	start := time.Now()
	st, err := hwstar.OpenStore(hwstar.StoreOptions{Dir: dir, Machine: s.machine})
	if err != nil {
		return err
	}
	defer st.Close()
	rs.openMs = append(rs.openMs, ms(time.Since(start)))

	so := s.srvOpts
	so.Store = st
	srv, err := hwstar.NewServer(s.machine, so)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := srv.WaitRecovered(ctx); err != nil {
		return err
	}
	ep, err := newEndpoint(s, srv, nil)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ep.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	c, err := newClient(ctx, ep, s.tenant)
	if err != nil {
		return err
	}
	defer c.close()

	var part window
	(&loadClient{client: c}).issue(ctx, epoch, q, nil, &part)
	rs.recoveryMs = append(rs.recoveryMs, ms(time.Since(start)))
	rs.attempted++
	if part.failed > 0 {
		rs.failed++
		rs.problems = append(rs.problems, "restart: "+part.problems[0])
	}
	rec := st.Recovery()
	rs.bytesValidated = rec.BytesValidated
	rs.fallbacks += rec.Fallbacks
	return nil
}

// copyDir copies the regular files of src (a store directory is flat)
// into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// fsName names the filesystem holding dir, for the run's environment line:
// checkpoint and recovery times are that filesystem's, not a device's.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch magic := int64(st.Type); magic {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", magic)
	}
}
