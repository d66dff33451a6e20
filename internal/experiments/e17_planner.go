package experiments

import (
	"hwstar/internal/bench"
	"hwstar/internal/hw"
	"hwstar/internal/join"
	"hwstar/internal/planner"
	"hwstar/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Hardware-conscious planning: variant choice by machine model",
		Claim: "the right operator is a function of hardware and statistics; a cost model can pick it at plan time",
		Run:   runE17,
	})
}

func runE17(cfg Config) ([]*Table, error) {
	m := hw.Server2S()
	ctx := hw.DefaultContext()

	// Table 1: the decision map over (build size × miss fraction).
	t1 := bench.NewTable("E17: planner decision map ("+m.Name+", probe = 4x build)",
		"build rows", "miss 0%", "miss 50%", "miss 90%")
	for _, build := range []int64{1 << 12, 1 << 16, 1 << 20, 1 << 23} {
		row := []string{bench.F("%d", build)}
		for _, miss := range []float64{0, 0.5, 0.9} {
			p := planner.ChooseJoin(m, join.Stats{BuildRows: build, ProbeRows: 4 * build, MissFrac: miss}, ctx)
			row = append(row, string(p.Variant))
		}
		t1.AddRow(row...)
	}
	t1.AddNote("cache-resident builds keep the naive join; big builds switch to MLP-restoring variants;")
	t1.AddNote("high miss rates bring in the semi-join filter — all read off the machine model, no heuristics")

	// Table 2: plan quality — execute the plan and every alternative on
	// real data; report the regret (chosen / best actual cycles).
	t2 := bench.NewTable("E17: plan quality on executed joins (regret = chosen/best actual cycles)",
		"build rows", "miss", "chosen", "regret")
	grid := []struct {
		build int
		miss  float64
	}{
		{1 << 12, 0},
		{1 << 16, 0.5},
		{1 << 18, 0},
		{1 << 18, 0.9},
	}
	for _, g := range grid {
		n := cfg.scaled(g.build, 1<<10)
		gen := workload.GenerateJoin(workload.JoinConfig{Seed: 1701, BuildRows: n, ProbeRows: 4 * n, Miss: g.miss})
		in := join.Input{BuildKeys: gen.BuildKeys, BuildVals: gen.BuildVals, ProbeKeys: gen.ProbeKeys, ProbeVals: gen.ProbeVals}
		p, regret, err := planner.Regret(in, m, ctx, g.miss)
		if err != nil {
			return nil, err
		}
		t2.AddRow(bench.F("%d", n), bench.F("%.2f", g.miss), string(p.Variant), bench.F("%.3f", regret))
	}
	t2.AddNote("regret 1.000 means the model picked the true winner; small regret means a near-tie")
	return []*Table{t1, t2}, nil
}
