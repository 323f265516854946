package experiments

import (
	"fmt"
	"sort"

	"repro/internal/apps/nbia"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "chaos",
		Title:    "Fault injection: makespan degradation and work conservation under chaos",
		PaperRef: "extension",
		Run:      runChaos,
	})
}

// The chaos study runs the heterogeneous base case (Figure 10's cluster
// shape, doubled to four nodes so the processing filter has crashable
// transparent copies to spare) under seeded-random fault schedules of
// increasing intensity, for each stream policy.
const (
	chaosNodes = 4
	chaosRate  = 0.08
)

func chaosTiles(cfg Config) int {
	if cfg.Full {
		return 6000
	}
	return 1000
}

// chaosIntensities is the fault-intensity grid of the random sweep.
var chaosIntensities = []float64{0, 0.33, 0.66, 1}

// chaosPoint is the outcome of one (schedule, policy) cell: the healthy
// baseline makespan, the faulted makespan, and the work-conservation
// audit of the faulted run.
type chaosPoint struct {
	m0, m     sim.Time
	completed int64
	expected  int64
	unique    int
	dupes     int
	err       error
}

func (p chaosPoint) degradation() float64 {
	if p.m0 <= 0 {
		return 0
	}
	return (float64(p.m)/float64(p.m0) - 1) * 100
}

func (p chaosPoint) conserved() bool {
	return p.err == nil && p.dupes == 0 &&
		p.completed == p.expected && int64(p.unique) == p.expected
}

// runChaosPoint runs the base case twice — healthy, then with the fault
// schedule produced by mkSched from the healthy makespan (so random
// schedules can scale their event times to the run's horizon) — and audits
// the faulted run's processing records for exactly-once coverage.
func runChaosPoint(cfg Config, pol func() policy.StreamPolicy,
	mkSched func(horizon sim.Time) *fault.Schedule) chaosPoint {
	tiles := chaosTiles(cfg)
	run := func(p policy.StreamPolicy, sched *fault.Schedule, records bool) (*nbia.Result, error) {
		k := sim.NewKernel(cfg.Seed)
		return nbia.Run(nbia.Config{
			Cluster:     nbia.HeteroCluster(k, chaosNodes),
			Tiles:       tiles,
			RecalcRate:  chaosRate,
			Policy:      p,
			UseGPU:      true,
			CPUWorkers:  -1,
			AsyncCopy:   true,
			Weights:     nbia.WeightEstimator,
			Seed:        cfg.Seed + 17,
			RecordProcs: records,
			Faults:      sched,
		})
	}
	base, err := run(pol(), nil, false)
	if err != nil {
		return chaosPoint{err: fmt.Errorf("baseline: %w", err)}
	}
	res, err := run(pol(), mkSched(base.Makespan), true)
	if err != nil {
		return chaosPoint{m0: base.Makespan, err: err}
	}
	pt := chaosPoint{
		m0:        base.Makespan,
		m:         res.Makespan,
		completed: res.Completed,
		expected:  nbia.ExpectedLineages(tiles, nbia.DefaultLevels, chaosRate, 0),
	}
	seen := map[nbia.TileRef]int{}
	for _, r := range res.Records {
		seen[r.Payload.(nbia.TileRef)]++
	}
	pt.unique = len(seen)
	for _, n := range seen {
		if n > 1 {
			pt.dupes++
		}
	}
	return pt
}

func runChaos(cfg Config) *Report {
	if cfg.FaultSpec != "" {
		return runChaosScripted(cfg)
	}
	pols := policy.Baseline()
	np := len(pols)
	// Point grid: (intensity, policy), policies contiguous per intensity.
	// Each point draws its own schedule from (seed, point index), so the
	// sweep is deterministic on any worker count.
	points := SweepMap(len(chaosIntensities)*np, func(i int) chaosPoint {
		intensity := chaosIntensities[i/np]
		seed := PointSeed(cfg.Seed, i)
		return runChaosPoint(cfg, pols[i%np].New, func(horizon sim.Time) *fault.Schedule {
			return fault.Random(seed, intensity, fault.Shape{
				Nodes:     chaosNodes,
				GPUNodes:  gpuNodes(chaosNodes),
				Horizon:   horizon,
				Filter:    "nbia",
				Instances: chaosNodes,
			})
		})
	})

	tb := metrics.Table{
		Title: fmt.Sprintf("Makespan degradation under random fault schedules, %d-node heterogeneous cluster, %d tiles at %g%% recalculation",
			chaosNodes, chaosTiles(cfg), chaosRate*100),
		Header: []string{"Intensity", "Policy", "healthy ms", "faulted ms", "degradation %", "lineages (got/want)", "conserved"},
	}
	series := make([]metrics.Series, np)
	for pi, p := range pols {
		series[pi] = metrics.Series{Label: p.Name}
	}
	series[0].XLabel = "fault intensity"
	allConserved, zeroIdentical, maxDegrades := true, true, true
	var failDetail string
	for ii, intensity := range chaosIntensities {
		for pi, p := range pols {
			pt := points[ii*np+pi]
			if pt.err != nil {
				allConserved = false
				failDetail = fmt.Sprintf("%s @ %g: %v", p.Name, intensity, pt.err)
				tb.AddRow(fmt.Sprintf("%g", intensity), p.Name, "-", "-", "-", "-", "ERROR")
				continue
			}
			if !pt.conserved() {
				allConserved = false
				failDetail = fmt.Sprintf("%s @ %g: %d/%d lineages, %d duplicated",
					p.Name, intensity, pt.unique, pt.expected, pt.dupes)
			}
			if intensity == 0 && pt.m != pt.m0 {
				zeroIdentical = false
			}
			if intensity == chaosIntensities[len(chaosIntensities)-1] && pt.degradation() <= 0 {
				maxDegrades = false
			}
			series[pi].Add(intensity, pt.degradation())
			tb.AddRow(fmt.Sprintf("%g", intensity), p.Name,
				fmt.Sprintf("%.1f", float64(pt.m0)/float64(sim.Millisecond)),
				fmt.Sprintf("%.1f", float64(pt.m)/float64(sim.Millisecond)),
				fmt.Sprintf("%.1f", pt.degradation()),
				fmt.Sprintf("%d/%d", pt.unique, pt.expected),
				yesNo(pt.conserved()))
		}
	}
	if failDetail == "" {
		failDetail = "every (intensity, policy) cell processed each lineage exactly once"
	}
	return &Report{
		ID: "chaos", Title: "Fault injection under chaos schedules", PaperRef: "extension",
		Expectation: "the demand-driven runtime is work-conserving under transient slowdowns, " +
			"link degradation, and filter-instance crashes: every tile lineage is processed " +
			"exactly once, makespan degrades gracefully with fault intensity, and an empty " +
			"schedule reproduces the healthy run exactly.",
		Body:   tb.Render(),
		Series: series,
		Checks: []Check{
			check("work conserved under every fault schedule", allConserved, "%s", failDetail),
			check("zero intensity reproduces the healthy makespan exactly", zeroIdentical,
				"empty generated schedule is a strict no-op"),
			check("max intensity degrades makespan for every policy", maxDegrades,
				"degradation > 0 at intensity %g", chaosIntensities[len(chaosIntensities)-1]),
		},
	}
}

// runChaosScripted evaluates a user-written -faults spec against each
// policy instead of the random intensity sweep.
func runChaosScripted(cfg Config) *Report {
	sched, perr := fault.Parse(cfg.FaultSpec)
	rep := &Report{
		ID: "chaos", Title: "Fault injection (scripted schedule)", PaperRef: "extension",
		Expectation: "the runtime stays work-conserving under the user-supplied fault " +
			"schedule: every tile lineage is processed exactly once for every policy.",
	}
	if perr != nil {
		rep.Body = fmt.Sprintf("Fault spec rejected: `%v`\n", perr)
		rep.Checks = []Check{check("fault spec parses", false, "%v", perr)}
		return rep
	}
	pols := policy.Baseline()
	points := SweepMap(len(pols), func(i int) chaosPoint {
		return runChaosPoint(cfg, pols[i].New,
			func(sim.Time) *fault.Schedule { return sched })
	})
	tb := metrics.Table{
		Title: fmt.Sprintf("Scripted schedule `%s`, %d-node heterogeneous cluster, %d tiles",
			sched.String(), chaosNodes, chaosTiles(cfg)),
		Header: []string{"Policy", "healthy ms", "faulted ms", "degradation %", "lineages (got/want)", "conserved"},
	}
	allConserved := true
	var errs []string
	for pi, p := range pols {
		pt := points[pi]
		if pt.err != nil {
			allConserved = false
			errs = append(errs, fmt.Sprintf("%s: %v", p.Name, pt.err))
			tb.AddRow(p.Name, "-", "-", "-", "-", "ERROR")
			continue
		}
		if !pt.conserved() {
			allConserved = false
			errs = append(errs, fmt.Sprintf("%s: %d/%d lineages, %d duplicated",
				p.Name, pt.unique, pt.expected, pt.dupes))
		}
		tb.AddRow(p.Name,
			fmt.Sprintf("%.1f", float64(pt.m0)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", float64(pt.m)/float64(sim.Millisecond)),
			fmt.Sprintf("%.1f", pt.degradation()),
			fmt.Sprintf("%d/%d", pt.unique, pt.expected),
			yesNo(pt.conserved()))
	}
	detail := "every policy processed each lineage exactly once"
	if len(errs) > 0 {
		sort.Strings(errs)
		detail = errs[0]
	}
	rep.Body = tb.Render()
	rep.Checks = []Check{
		check("work conserved under the scripted schedule", allConserved, "%s", detail),
	}
	return rep
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
