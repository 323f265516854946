package experiments

// The serving experiment is the open-system extension study: instead of a
// fixed batch of tiles, requests arrive continuously at an admission-
// controlled gateway and flow to a heterogeneous pool of serve replicas
// (one CPU-only node, one GPU node) through each demand-driven stream
// policy. The sweep offers Poisson load at fractions of the pool's service
// capacity — including one overload point — and reports per-request
// end-to-end latency percentiles (p50/p99/p999 from the deterministic GK
// sketch), shed counts, and the peak gateway queue depth, plus a stage
// breakdown (gateway wait, serve queue, service) of the worst SLO-violating
// request at overload.
//
// It registers as an extra: `-exp serving` runs it, `-exp all` does not, so
// the pinned digest of the paper-order report is untouched.

import (
	"fmt"
	"strings"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
)

func init() {
	registerExtra(Experiment{
		ID:       "serving",
		Title:    "Open-system serving: latency percentiles and admission control under load",
		PaperRef: "extension",
		Run:      runServing,
	})
}

// servingLoads are the offered-load multiples of serve.Capacity; the last
// point is deliberate overload.
var servingLoads = []float64{0.3, 0.7, 1.5}

func servingHorizon(cfg Config) sim.Time {
	if cfg.Full {
		return 1500 * sim.Millisecond
	}
	return 250 * sim.Millisecond
}

// servingTimes draws the arrival instants of one Poisson cell offering rate
// requests per second over the experiment's horizon.
func servingTimes(cfg Config, rate float64, seed int64) []sim.Time {
	horizon := servingHorizon(cfg)
	sched := &arrival.Schedule{Procs: []arrival.Proc{{
		Kind: arrival.Poisson, Rate: rate, N: int(rate * float64(horizon)),
	}}}
	return sched.Times(seed)
}

// servingPoint is the outcome of one (load, policy) cell: the gateway's
// admission counts, the pipeline's sink and the worst violator's lineage.
type servingPoint struct {
	*arrival.Stats
	*serve.Sink
	lineage string
	err     error
}

func (p servingPoint) conserved() bool {
	return p.err == nil && p.Accepted+p.Rejected == p.Offered && p.Served == p.Accepted
}

// runServingPoint executes one open-system run: Poisson (or scripted)
// arrivals at an admission-controlled gateway, a two-node heterogeneous
// serve pool, one stream policy.
func runServingPoint(seed int64, pol policy.StreamPolicy, times []sim.Time) servingPoint {
	k := sim.NewKernel(seed)
	rt := core.New(hw.NewCluster(k, serve.Pool(), nil), nil)
	pt := servingPoint{Sink: serve.NewSink("", serve.DefaultSLO, len(times))}
	pt.Sink.Attach(rt)
	// The span collector chains in front of the sink; its Admit
	// subscription records each accepted request as a lineage root so the
	// worst violator's per-request breakdown can be built after the run.
	col := span.NewCollector()
	col.Attach(rt)
	pt.Stats = serve.Pipeline(rt, "", 0, []int{0, 1}, pol, serve.DefaultQueueLimit, times, serve.Request)
	if _, err := rt.Run(); err != nil {
		pt.err = err
		return pt
	}
	if err := rt.Validate(); err != nil {
		pt.err = err
		return pt
	}
	if pt.Err != nil {
		pt.err = pt.Err
		return pt
	}
	if pt.Worst.TaskID != 0 {
		if a, err := col.BuildRequest(pt.Worst.TaskID); err == nil {
			pt.lineage = a.Breakdown()
		}
	}
	return pt
}

// servingMS formats a sketch quantile (stored in seconds of virtual time)
// in milliseconds.
func servingMS(s *obs.Sketch, q float64) string {
	return fmt.Sprintf("%.3f", s.Quantile(q)/float64(sim.Millisecond))
}

// servingTally renders serving cells as table rows and folds them into the
// checks both serving variants make: exactly-once conservation and the
// gateway queue bound.
type servingTally struct {
	tb                 metrics.Table
	conserved, bounded bool
	failDetail         string
	worstLines         []string
}

// add renders the cell named cell under the leading columns lead, listing
// its worst SLO violator when worst is set, and reports whether it ran.
func (t *servingTally) add(lead []string, cell, name string, pt servingPoint, worst bool) bool {
	if pt.err != nil {
		t.conserved = false
		t.failDetail = fmt.Sprintf("%s: %v", cell, pt.err)
		t.tb.AddRow(append(lead, "-", "-", "-", "-", "-", "-", "ERROR")...)
		return false
	}
	if !pt.conserved() {
		t.conserved = false
		t.failDetail = fmt.Sprintf("%s: offered %d, accepted %d, rejected %d, served %d",
			cell, pt.Offered, pt.Accepted, pt.Rejected, pt.Served)
	}
	if pt.MaxDepth > serve.DefaultQueueLimit {
		t.bounded = false
	}
	if worst && pt.Violations > 0 {
		t.worstLines = append(t.worstLines, fmt.Sprintf("- %s: %s", name, pt.Worst))
		if pt.lineage != "" {
			t.worstLines = append(t.worstLines, fmt.Sprintf("  - lineage: %s", pt.lineage))
		}
	}
	t.tb.AddRow(append(lead,
		fmt.Sprintf("%d", pt.Offered),
		fmt.Sprintf("%d", pt.Rejected),
		servingMS(pt.Cum, 0.50),
		servingMS(pt.Cum, 0.99),
		servingMS(pt.Cum, 0.999),
		fmt.Sprintf("%d", pt.MaxDepth),
		fmt.Sprintf("%d", pt.Violations))...)
	return true
}

func runServing(cfg Config) *Report {
	if cfg.ArrivalSpec != "" {
		return runServingScripted(cfg)
	}
	pols := policy.Baseline()
	np := len(pols)
	// Point grid: (load, policy), policies contiguous per load. Each point
	// draws its arrival instants from (seed, point index), so the sweep is
	// deterministic on any worker count.
	points := SweepMap(len(servingLoads)*np, func(i int) servingPoint {
		seed := PointSeed(cfg.Seed, i)
		return runServingPoint(seed, pols[i%np].New(), servingTimes(cfg, servingLoads[i/np]*serve.Capacity, seed))
	})

	t := servingTally{conserved: true, bounded: true, tb: metrics.Table{
		Title: fmt.Sprintf("Open-system serving, 2-node heterogeneous pool (capacity %.0f req/s), Poisson arrivals over %.0f ms, gateway queue limit %d, SLO %.0f ms",
			serve.Capacity, float64(servingHorizon(cfg))/float64(sim.Millisecond),
			serve.DefaultQueueLimit, float64(serve.DefaultSLO)/float64(sim.Millisecond)),
		Header: []string{"Load", "Policy", "offered", "shed", "p50 ms", "p99 ms", "p999 ms", "max queue", "SLO viol"},
	}}
	series := make([]metrics.Series, np)
	for pi, p := range pols {
		series[pi] = metrics.Series{Label: p.Name}
	}
	series[0].XLabel = "offered load (x capacity)"

	overloadSheds, latencyRises, violRise := true, true, true
	last := len(servingLoads) - 1
	for li, load := range servingLoads {
		for pi, p := range pols {
			pt := points[li*np+pi]
			lead := []string{fmt.Sprintf("%gx", load), p.Name}
			if !t.add(lead, fmt.Sprintf("%s @ %gx", p.Name, load), p.Name, pt, li == last) {
				continue
			}
			if li == last {
				if pt.Rejected == 0 {
					overloadSheds = false
				}
				low := points[0*np+pi]
				if low.err == nil && pt.Cum.Quantile(0.99) <= low.Cum.Quantile(0.99) {
					latencyRises = false
				}
				if low.err == nil && pt.Violations <= low.Violations {
					violRise = false
				}
			}
			series[pi].Add(load, pt.Cum.Quantile(0.99)/float64(sim.Millisecond))
		}
	}
	if t.failDetail == "" {
		t.failDetail = "every (load, policy) cell served each admitted request exactly once"
	}
	body := t.tb.Render()
	if len(t.worstLines) > 0 {
		body += fmt.Sprintf("\n**Stage breakdown of the worst SLO violator at %gx load:**\n\n%s\n",
			servingLoads[last], strings.Join(t.worstLines, "\n"))
	}
	return &Report{
		ID: "serving", Title: "Open-system serving under admission control", PaperRef: "extension",
		Expectation: "the demand-driven runtime degrades gracefully as an open system: " +
			"below capacity every request meets the SLO, at overload the gateway sheds " +
			"instead of queueing unboundedly, latency percentiles rise with offered load, " +
			"and every admitted request is served exactly once.",
		Body:   body,
		Series: series,
		Checks: []Check{
			check("requests conserved at every load", t.conserved, "%s", t.failDetail),
			check("gateway queue bounded by the admission limit", t.bounded,
				"peak depth <= %d at every (load, policy) cell", serve.DefaultQueueLimit),
			check("overload sheds for every policy", overloadSheds,
				"rejected > 0 at %gx load", servingLoads[last]),
			check("p99 latency rises with offered load", latencyRises,
				"p99 at %gx exceeds p99 at %gx for every policy", servingLoads[last], servingLoads[0]),
			check("SLO violations concentrate at overload", violRise,
				"violations at %gx exceed violations at %gx for every policy", servingLoads[last], servingLoads[0]),
		},
	}
}

// runServingScripted evaluates a user-written -arrivals spec against each
// policy instead of the default load sweep.
func runServingScripted(cfg Config) *Report {
	sched, perr := arrival.Parse(cfg.ArrivalSpec)
	rep := &Report{
		ID: "serving", Title: "Open-system serving (scripted arrivals)", PaperRef: "extension",
		Expectation: "the runtime serves the user-supplied arrival schedule with bounded " +
			"gateway queueing and exactly-once processing of every admitted request.",
	}
	if perr != nil {
		rep.Body = fmt.Sprintf("Arrival spec rejected: `%v`\n", perr)
		rep.Checks = []Check{check("arrival spec parses", false, "%v", perr)}
		return rep
	}
	pols := policy.Baseline()
	points := SweepMap(len(pols), func(i int) servingPoint {
		seed := PointSeed(cfg.Seed, i)
		return runServingPoint(seed, pols[i].New(), sched.Times(seed))
	})
	t := servingTally{conserved: true, bounded: true, tb: metrics.Table{
		Title: fmt.Sprintf("Scripted arrivals `%s` (%d requests), 2-node heterogeneous pool, gateway queue limit %d, SLO %.0f ms",
			sched.String(), sched.Count(), serve.DefaultQueueLimit,
			float64(serve.DefaultSLO)/float64(sim.Millisecond)),
		Header: []string{"Policy", "offered", "shed", "p50 ms", "p99 ms", "p999 ms", "max queue", "SLO viol"},
	}}
	for pi, p := range pols {
		t.add([]string{p.Name}, p.Name, p.Name, points[pi], true)
	}
	if t.failDetail == "" {
		t.failDetail = "every policy served each admitted request exactly once"
	}
	body := t.tb.Render()
	if len(t.worstLines) > 0 {
		body += fmt.Sprintf("\n**Stage breakdown of the worst SLO violator:**\n\n%s\n",
			strings.Join(t.worstLines, "\n"))
	}
	rep.Body = body
	rep.Checks = []Check{
		check("requests conserved under the scripted schedule", t.conserved, "%s", t.failDetail),
		check("gateway queue bounded by the admission limit", t.bounded,
			"peak depth <= %d for every policy", serve.DefaultQueueLimit),
	}
	return rep
}
