package serve

import (
	"context"
	"sync"
	"testing"

	"hwstar/internal/hw"
)

// BenchmarkSubmit is the admission + batching layer end to end: Submit,
// lane, dispatcher, core reservation and one pass over a 64 K-row table.
// lone-scan is a single closed-loop client (one op = one request, a batch of
// one); cohort-8 is eight clients released together (one op = all eight
// answered, in however many passes the batcher made of them).
func BenchmarkSubmit(b *testing.B) {
	cols, _ := testRelation(64 << 10)
	run := func(b *testing.B, clients int) {
		s, err := New(hw.Server2S(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if err := s.Register("events", cols); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.Submit(context.Background(), scanOf("events", int64(100*c), int64(100*c+800))); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	}
	b.Run("lone-scan", func(b *testing.B) { run(b, 1) })
	b.Run("cohort-8", func(b *testing.B) { run(b, 8) })
}
