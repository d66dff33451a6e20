package store

import (
	"context"
	"testing"
)

func TestVerifyPutDuringCheckpointReview(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		dir := t.TempDir()
		s := mustOpen(t, Options{Dir: dir})
		s.Put(testTable("a", 200000, 1)) // big: slow segment write
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Checkpoint(context.Background(), nil)
		}()
		newT := testTable("a", 10, 9)
		s.Put(newT) // races the checkpoint's I/O window
		<-done
		if _, err := s.Checkpoint(context.Background(), nil); err != nil {
			t.Fatalf("second checkpoint: %v", err)
		}
		r := mustOpen(t, Options{Dir: dir})
		got, err := r.Load(context.Background(), "a")
		if err != nil {
			t.Fatalf("iter %d: load after restart: %v", iter, err)
		}
		if got.NumRows() != 10 {
			t.Fatalf("iter %d: LOST UPDATE: durable rows=%d after restart, want 10 (latest Put never persisted)",
				iter, got.NumRows())
		}
	}
}
