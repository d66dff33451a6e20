package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hwstar/internal/agg"
	"hwstar/internal/join"
	"hwstar/internal/workload"
)

// TestPooledTablesAreNotShared: eight clients send joins (both algorithms)
// and group-sums (every strategy) through one server at once. The operators'
// hash tables all come from one process-wide pool; every answer must equal
// the serial reference for its own request (run under -race: a table handed
// to two queries at once is a data race before it is a wrong sum).
func TestPooledTablesAreNotShared(t *testing.T) {
	s := newServer(t, Options{Workers: 8, OpWorkers: 2, QueueDepth: 64})
	defer s.Close()
	const clients, rounds = 8, 6
	strategies := []agg.Strategy{agg.StrategyGlobal, agg.StrategyLocalMerge, agg.StrategyRadix}
	algorithms := []join.Algorithm{join.AlgNPO, join.AlgRadix}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				seed := int64(100*c + r)
				if (c+r)%2 == 0 {
					// Sizes repeat across clients so they compete for the
					// same capacity classes.
					keys := workload.UniformInts(seed, 6000, 300<<uint(r%3))
					vals := workload.UniformInts(seed+1, 6000, 1000)
					resp, err := s.Submit(context.Background(), Request{Op: OpGroupSum, Keys: keys, Vals: vals, Strategy: strategies[(c+r)%3]})
					if err != nil {
						t.Errorf("client %d round %d: group-sum: %v", c, r, err)
						return
					}
					if !reflect.DeepEqual(resp.Groups, agg.Serial(keys, vals)) {
						t.Errorf("client %d round %d: group-sum differs from the serial reference", c, r)
					}
					continue
				}
				in := joinInput(workload.GenerateJoin(workload.JoinConfig{Seed: seed, BuildRows: 500 << uint(r%3), ProbeRows: 4000}))
				resp, err := s.Submit(context.Background(), Request{Op: OpJoin, Join: in, Algorithm: algorithms[(c+r)/2%2]})
				if err != nil {
					t.Errorf("client %d round %d: join: %v", c, r, err)
					return
				}
				if want, _ := join.NPO(in, nil); resp.Matches != want.Matches || resp.Checksum != want.Checksum {
					t.Errorf("client %d round %d: join %d/%x, serial NPO %d/%x", c, r, resp.Matches, resp.Checksum, want.Matches, want.Checksum)
				}
			}
		}(c)
	}
	wg.Wait()
}
