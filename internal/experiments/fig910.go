package experiments

import (
	"fmt"

	"repro/internal/apps/nbia"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/policy"
)

func init() {
	register(Experiment{
		ID:       "fig9",
		Title:    "Homogeneous base case: DDWRR vs asynchronous copy + ODDS",
		PaperRef: "Figure 9",
		Run:      runFig9,
	})
	register(Experiment{
		ID:       "fig10",
		Title:    "Heterogeneous base case: stream policies on CPU+GPU node plus CPU-only node",
		PaperRef: "Figure 10",
		Run:      runFig10,
	})
	register(Experiment{
		ID:       "table6",
		Title:    "Tiles processed by the GPU per resolution and stream policy",
		PaperRef: "Table 6",
		Run:      runTable6,
	})
}

func runFig9(cfg Config) *Report {
	tiles := baseTiles(cfg)
	wrrSync := metrics.Series{Label: "DDWRR (sync copy)", XLabel: "recalc rate %"}
	wrrAsync := metrics.Series{Label: "DDWRR (async copy)"}
	odds := metrics.Series{Label: "ODDS (async copy)"}
	// Point grid: (rate, variant) with the three variants per rate.
	speedups := SweepMap(3*len(recalcRates), func(i int) float64 {
		c := nbiaCase{nodes: 1, tiles: tiles, rate: recalcRates[i/3],
			useGPU: true, cpuWorkers: 1, seed: cfg.Seed}
		switch i % 3 {
		case 0:
			c.pol, c.sync = policy.DDWRR(ddwrrReq), true
		case 1:
			c.pol = policy.DDWRR(ddwrrReq)
		default:
			c.pol = policy.ODDS()
		}
		return c.run().Speedup
	})
	for ri, rate := range recalcRates {
		x := rate * 100
		wrrSync.Add(x, speedups[3*ri])
		wrrAsync.Add(x, speedups[3*ri+1])
		odds.Add(x, speedups[3*ri+2])
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("NBIA speedup, 1 CPU+GPU node, %d tiles", tiles),
		[]metrics.Series{wrrSync, wrrAsync, odds})

	last := len(recalcRates) - 1
	gain := (odds.Y[last]/wrrSync.Y[last] - 1) * 100
	parityOK := true
	for i := range recalcRates {
		if odds.Y[i] < 0.92*wrrAsync.Y[i] {
			parityOK = false
		}
	}
	return &Report{
		ID: "fig9", Title: "Homogeneous base case", PaperRef: "Figure 9",
		Expectation: "even on a single node, asynchronous transfers plus ODDS beat DDWRR " +
			"(~23% at 20% recalculation) because the sender already picks the buffer that " +
			"best fits the requesting processor.",
		Body:   body,
		Series: []metrics.Series{wrrSync, wrrAsync, odds},
		Checks: []Check{
			check("ODDS+async gains >= 10% over sync DDWRR at 20%", gain >= 10,
				"gain = %.1f%% (paper ~23%%)", gain),
			check("ODDS at least matches tuned async DDWRR at every rate", parityOK,
				"ODDS within 8%% of DDWRR everywhere or above"),
		},
	}
}

func runFig10(cfg Config) *Report {
	tiles := baseTiles(cfg)
	fcfs := metrics.Series{Label: "DDFCFS", XLabel: "recalc rate %"}
	wrr := metrics.Series{Label: "DDWRR"}
	odds := metrics.Series{Label: "ODDS"}
	// As in the paper, the static policies are shown at their best
	// streamRequestsSize for each point (exhaustive search); ODDS adapts.
	sizes := searchSizes(cfg)
	// Point grid: (rate, policy); each static-policy point runs its own
	// request-size search.
	speedups := SweepMap(3*len(recalcRates), func(i int) float64 {
		base := nbiaCase{hetero: true, nodes: 2, tiles: tiles, rate: recalcRates[i/3],
			useGPU: true, cpuWorkers: -1, seed: cfg.Seed}
		switch i % 3 {
		case 0:
			return runBestStatic(base, policy.DDFCFS, sizes).Speedup
		case 1:
			return runBestStatic(base, policy.DDWRR, sizes).Speedup
		default:
			base.pol = policy.ODDS()
			return base.run().Speedup
		}
	})
	for ri, rate := range recalcRates {
		x := rate * 100
		fcfs.Add(x, speedups[3*ri])
		wrr.Add(x, speedups[3*ri+1])
		odds.Add(x, speedups[3*ri+2])
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("NBIA speedup, CPU+GPU node + dual-core CPU-only node, %d tiles", tiles),
		[]metrics.Series{fcfs, wrr, odds})

	at8 := func(s metrics.Series) float64 {
		for i, x := range s.X {
			if x == 8 {
				return s.Y[i]
			}
		}
		return 0
	}
	oddsWins := true
	for i := 1; i < len(recalcRates); i++ { // skip 0%: no heterogeneity in tasks
		if odds.Y[i] <= wrr.Y[i] {
			oddsWins = false
		}
	}
	return &Report{
		ID: "fig10", Title: "Heterogeneous base case", PaperRef: "Figure 10",
		Expectation: "adding a CPU-only node helps DDFCFS and DDWRR only slightly, but ODDS " +
			"jumps far ahead (25 -> 44 at 8% in the paper) because the sender-side DBSA " +
			"keeps high-resolution tiles away from the GPU-less machine.",
		Body:   body,
		Series: []metrics.Series{fcfs, wrr, odds},
		Checks: []Check{
			check("ODDS clearly beats DDWRR at 8%", at8(odds) >= 1.25*at8(wrr),
				"ODDS %.1f vs DDWRR %.1f (paper 44 vs 25)", at8(odds), at8(wrr)),
			check("ODDS beats DDWRR at every nonzero rate", oddsWins, "pointwise comparison"),
			check("DDWRR beats DDFCFS at 8%", at8(wrr) > at8(fcfs),
				"DDWRR %.1f vs DDFCFS %.1f", at8(wrr), at8(fcfs)),
		},
	}
}

func runTable6(cfg Config) *Report {
	tiles := baseTiles(cfg)
	paper := map[string][2]float64{ // GPU share %: low, high
		"homo/DDFCFS":   {98.16, 92.42},
		"homo/DDWRR":    {17.07, 96.34},
		"homo/ODDS":     {6.98, 97.89},
		"hetero/DDFCFS": {84.85, 85.67},
		"hetero/DDWRR":  {16.72, 92.92},
		"hetero/ODDS":   {0, 97.62},
	}
	tb := metrics.Table{
		Title:  "Percent of tiles processed by the GPU at 8% recalculation",
		Header: []string{"Config", "Policy", "low-res % (paper)", "low-res % (ours)", "high-res % (paper)", "high-res % (ours)"},
	}
	got := map[string][2]float64{}
	envs := []struct {
		name   string
		hetero bool
		nodes  int
	}{{"homo", false, 1}, {"hetero", true, 2}}
	pols := policy.Baseline()
	// Point grid: (environment, policy), policies contiguous per environment.
	shares := SweepMap(len(envs)*len(pols), func(i int) [2]float64 {
		env, p := envs[i/len(pols)], pols[i%len(pols)]
		res := nbiaCase{hetero: env.hetero, nodes: env.nodes, tiles: tiles, rate: 0.08,
			pol: p.New(), useGPU: true, cpuWorkers: -1, records: true, seed: cfg.Seed}.run()
		prof := metrics.ProfileBy(res.Records, func(r core.ProcRecord) int {
			return r.Payload.(nbia.TileRef).Level
		})
		return [2]float64{prof.Percent(hw.GPU, 0), prof.Percent(hw.GPU, 1)}
	})
	for ei, env := range envs {
		for pi, p := range pols {
			key := env.name + "/" + p.Name
			low, high := shares[ei*len(pols)+pi][0], shares[ei*len(pols)+pi][1]
			got[key] = [2]float64{low, high}
			pp := paper[key]
			tb.AddRow(env.name, p.Name,
				fmt.Sprintf("%.2f", pp[0]), fmt.Sprintf("%.2f", low),
				fmt.Sprintf("%.2f", pp[1]), fmt.Sprintf("%.2f", high))
		}
	}
	return &Report{
		ID: "table6", Title: "Tiles processed by the GPU per resolution/policy", PaperRef: "Table 6",
		Expectation: "under DDFCFS the CPU barely collaborates (GPU does >90% of both " +
			"resolutions); DDWRR and ODDS give the GPU nearly all high-resolution tiles " +
			"and push low-resolution tiles to the CPUs, ODDS most aggressively.",
		Body: tb.Render(),
		Checks: []Check{
			check("DDFCFS: GPU does the large majority of low-res tiles",
				got["homo/DDFCFS"][0] >= 70, "homo %.1f%%", got["homo/DDFCFS"][0]),
			check("DDWRR and ODDS: GPU handles the vast majority of high-res tiles",
				got["homo/DDWRR"][1] >= 90 && got["homo/ODDS"][1] >= 90 &&
					got["hetero/DDWRR"][1] >= 80 && got["hetero/ODDS"][1] >= 90,
				"homo %.1f/%.1f hetero %.1f/%.1f", got["homo/DDWRR"][1],
				got["homo/ODDS"][1], got["hetero/DDWRR"][1], got["hetero/ODDS"][1]),
			check("ODDS offloads low-res tiles from the GPU at least as much as DDWRR",
				got["homo/ODDS"][0] <= got["homo/DDWRR"][0]+5 &&
					got["hetero/ODDS"][0] <= got["hetero/DDWRR"][0]+5,
				"homo %.1f vs %.1f; hetero %.1f vs %.1f", got["homo/ODDS"][0],
				got["homo/DDWRR"][0], got["hetero/ODDS"][0], got["hetero/DDWRR"][0]),
		},
	}
}
