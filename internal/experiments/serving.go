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
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/task"
)

func init() {
	registerExtra(Experiment{
		ID:       "serving",
		Title:    "Open-system serving: latency percentiles and admission control under load",
		PaperRef: "extension",
		Run:      runServing,
	})
}

const (
	// servingCPUCost and servingGPUCost are the per-request service times.
	servingCPUCost = sim.Millisecond
	servingGPUCost = 300 * sim.Microsecond
	// servingCapacity is the pool's aggregate service rate in requests/s:
	// three CPU workers (two nodes, one worker each... see the spec below:
	// node 0 contributes one CPU worker, node 1 one CPU worker plus one GPU
	// worker) => 2/1ms + 1/300us.
	servingCapacity = 2.0/0.001 + 1.0/0.0003
	// servingQueueLimit bounds the gateway's send queue; past it the
	// gateway sheds instead of queueing unboundedly.
	servingQueueLimit = 32
	// servingSLO is the end-to-end latency objective requests are audited
	// against.
	servingSLO = 5 * sim.Millisecond
)

// servingLoads are the offered-load multiples of servingCapacity; the last
// point is deliberate overload.
var servingLoads = []float64{0.3, 0.7, 1.5}

func servingHorizon(cfg Config) sim.Time {
	if cfg.Full {
		return 1500 * sim.Millisecond
	}
	return 250 * sim.Millisecond
}

// servingBreakdown is the stage attribution of one request: admitted at the
// gateway, delivered to a serve replica, serviced start..end.
type servingBreakdown struct {
	taskID                     uint64
	node                       int
	kind                       hw.Kind
	admit, deliver, start, end sim.Time
}

func (b servingBreakdown) latency() sim.Time { return b.end - b.admit }

func (b servingBreakdown) String() string {
	ms := func(t sim.Time) string { return fmt.Sprintf("%.3f", float64(t)/float64(sim.Millisecond)) }
	return fmt.Sprintf("task %d via serve/%d (%s): total %s ms = gateway %s + wait %s + service %s",
		b.taskID, b.node, b.kind, ms(b.latency()),
		ms(b.deliver-b.admit), ms(b.start-b.deliver), ms(b.end-b.start))
}

// servingPoint is the outcome of one (load, policy) cell.
type servingPoint struct {
	offered, accepted, rejected int
	served, dupes               int
	maxDepth                    int
	violations                  int
	sketch                      *obs.Sketch
	worst                       servingBreakdown
	worstSpan                   string
	err                         error
}

func (p servingPoint) conserved() bool {
	return p.err == nil && p.dupes == 0 &&
		p.accepted+p.rejected == p.offered && p.served == p.accepted
}

// runServingPoint executes one open-system run: Poisson (or scripted)
// arrivals at an admission-controlled gateway, a two-node heterogeneous
// serve pool, one stream policy.
func runServingPoint(seed int64, pol func() policy.StreamPolicy, times []sim.Time) servingPoint {
	k := sim.NewKernel(seed)
	c := hw.NewCluster(k, []hw.NodeSpec{
		{CPUCores: 2},
		{CPUCores: 2, HasGPU: true},
	}, nil)
	rt := core.New(c, nil)

	pt := servingPoint{sketch: obs.NewSketch(obs.DefaultEps)}
	admitAt := make(map[uint64]sim.Time, len(times))
	deliverAt := make(map[uint64]sim.Time, len(times))
	served := make(map[uint64]int, len(times))
	rt.Hooks = core.Bus{
		Admit: func(r core.AdmitRecord) {
			if r.Accepted {
				admitAt[r.TaskID] = r.At
			}
		},
		QueueDepth: func(r core.QueueDepthRecord) {
			if r.Filter == "gateway" && r.Queue == "send" && r.Depth > pt.maxDepth {
				pt.maxDepth = r.Depth
			}
		},
		Deliver: func(r core.DeliverRecord) {
			if r.Filter == "serve" {
				deliverAt[r.TaskID] = r.At
			}
		},
		Process: func(r core.ProcRecord) {
			if r.Filter != "serve" {
				return
			}
			served[r.TaskID]++
			at, ok := admitAt[r.TaskID]
			if !ok {
				pt.err = fmt.Errorf("task %d processed without an admit record", r.TaskID)
				return
			}
			lat := r.End - at
			pt.sketch.Add(float64(lat))
			if lat > servingSLO {
				pt.violations++
			}
			if lat > pt.worst.latency() || pt.worst.taskID == 0 {
				pt.worst = servingBreakdown{
					taskID: r.TaskID, node: r.NodeID, kind: r.Kind,
					admit: at, deliver: deliverAt[r.TaskID],
					start: r.Start, end: r.End,
				}
			}
		},
	}
	// The span collector chains behind the measurement hooks above; its
	// Admit subscription records each accepted request as a lineage root so
	// the worst violator's per-request breakdown can be built after the run.
	col := span.NewCollector()
	col.Attach(rt)

	gw := rt.AddFilter(core.FilterSpec{
		Name: "gateway", Placement: []int{0},
		Open: true, QueueLimit: servingQueueLimit,
	})
	srv := rt.AddFilter(core.FilterSpec{
		Name: "serve", Placement: []int{0, 1},
		CPUWorkers: 1, UseGPU: true, GPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(gw, srv, pol())

	st := arrival.Drive(rt, gw, times, func(int) *task.Task {
		return &task.Task{
			Size: 8 << 10, OutSize: 1 << 10,
			Cost: func(kw hw.Kind) sim.Time {
				if kw == hw.GPU {
					return servingGPUCost
				}
				return servingCPUCost
			},
		}
	})

	if _, err := rt.Run(); err != nil {
		pt.err = err
		return pt
	}
	if err := rt.Validate(); err != nil {
		pt.err = err
		return pt
	}
	pt.offered, pt.accepted, pt.rejected = st.Offered, st.Accepted, st.Rejected
	pt.served = len(served)
	for _, n := range served {
		if n > 1 {
			pt.dupes++
		}
	}
	if pt.worst.taskID != 0 {
		if a, err := col.BuildRequest(pt.worst.taskID); err == nil {
			pt.worstSpan = a.Breakdown()
		}
	}
	return pt
}

// servingMS formats a sketch quantile (stored in seconds of virtual time)
// in milliseconds.
func servingMS(s *obs.Sketch, q float64) string {
	return fmt.Sprintf("%.3f", s.Quantile(q)/float64(sim.Millisecond))
}

func runServing(cfg Config) *Report {
	if cfg.ArrivalSpec != "" {
		return runServingScripted(cfg)
	}
	np := len(chaosPols)
	horizon := servingHorizon(cfg)
	// Point grid: (load, policy), policies contiguous per load. Each point
	// draws its arrival instants from (seed, point index), so the sweep is
	// deterministic on any worker count.
	points := SweepMap(len(servingLoads)*np, func(i int) servingPoint {
		load := servingLoads[i/np]
		seed := PointSeed(cfg.Seed, i)
		rate := load * servingCapacity
		sched := &arrival.Schedule{Procs: []arrival.Proc{{
			Kind: arrival.Poisson, Rate: rate, N: int(rate * float64(horizon)),
		}}}
		return runServingPoint(seed, chaosPols[i%np].pol, sched.Times(seed))
	})

	tb := metrics.Table{
		Title: fmt.Sprintf("Open-system serving, 2-node heterogeneous pool (capacity %.0f req/s), Poisson arrivals over %.0f ms, gateway queue limit %d, SLO %.0f ms",
			servingCapacity, float64(horizon)/float64(sim.Millisecond),
			servingQueueLimit, float64(servingSLO)/float64(sim.Millisecond)),
		Header: []string{"Load", "Policy", "offered", "shed", "p50 ms", "p99 ms", "p999 ms", "max queue", "SLO viol"},
	}
	series := make([]metrics.Series, np)
	for pi, p := range chaosPols {
		series[pi] = metrics.Series{Label: p.name}
	}
	series[0].XLabel = "offered load (x capacity)"

	allConserved, bounded, overloadSheds, latencyRises, violRise := true, true, true, true, true
	var failDetail string
	last := len(servingLoads) - 1
	var worstLines []string
	for li, load := range servingLoads {
		for pi, p := range chaosPols {
			pt := points[li*np+pi]
			if pt.err != nil {
				allConserved = false
				failDetail = fmt.Sprintf("%s @ %gx: %v", p.name, load, pt.err)
				tb.AddRow(fmt.Sprintf("%gx", load), p.name, "-", "-", "-", "-", "-", "-", "ERROR")
				continue
			}
			if !pt.conserved() {
				allConserved = false
				failDetail = fmt.Sprintf("%s @ %gx: offered %d, accepted %d, rejected %d, served %d, %d duplicated",
					p.name, load, pt.offered, pt.accepted, pt.rejected, pt.served, pt.dupes)
			}
			if pt.maxDepth > servingQueueLimit {
				bounded = false
			}
			if li == last {
				if pt.rejected == 0 {
					overloadSheds = false
				}
				low := points[0*np+pi]
				if low.err == nil && pt.sketch.Quantile(0.99) <= low.sketch.Quantile(0.99) {
					latencyRises = false
				}
				if low.err == nil && pt.violations <= low.violations {
					violRise = false
				}
				if pt.violations > 0 {
					worstLines = append(worstLines,
						fmt.Sprintf("- %s: %s", p.name, pt.worst))
					if pt.worstSpan != "" {
						worstLines = append(worstLines,
							fmt.Sprintf("  - lineage: %s", pt.worstSpan))
					}
				}
			}
			series[pi].Add(load, pt.sketch.Quantile(0.99)/float64(sim.Millisecond))
			tb.AddRow(fmt.Sprintf("%gx", load), p.name,
				fmt.Sprintf("%d", pt.offered),
				fmt.Sprintf("%d", pt.rejected),
				servingMS(pt.sketch, 0.50),
				servingMS(pt.sketch, 0.99),
				servingMS(pt.sketch, 0.999),
				fmt.Sprintf("%d", pt.maxDepth),
				fmt.Sprintf("%d", pt.violations))
		}
	}
	if failDetail == "" {
		failDetail = "every (load, policy) cell served each admitted request exactly once"
	}
	body := tb.Render()
	if len(worstLines) > 0 {
		body += fmt.Sprintf("\n**Stage breakdown of the worst SLO violator at %gx load:**\n\n%s\n",
			servingLoads[last], strings.Join(worstLines, "\n"))
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
			check("requests conserved at every load", allConserved, "%s", failDetail),
			check("gateway queue bounded by the admission limit", bounded,
				"peak depth <= %d at every (load, policy) cell", servingQueueLimit),
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
	np := len(chaosPols)
	points := SweepMap(np, func(i int) servingPoint {
		seed := PointSeed(cfg.Seed, i)
		return runServingPoint(seed, chaosPols[i].pol, sched.Times(seed))
	})
	tb := metrics.Table{
		Title: fmt.Sprintf("Scripted arrivals `%s` (%d requests), 2-node heterogeneous pool, gateway queue limit %d, SLO %.0f ms",
			sched.String(), sched.Count(), servingQueueLimit,
			float64(servingSLO)/float64(sim.Millisecond)),
		Header: []string{"Policy", "offered", "shed", "p50 ms", "p99 ms", "p999 ms", "max queue", "SLO viol"},
	}
	allConserved, bounded := true, true
	var failDetail string
	var worstLines []string
	for pi, p := range chaosPols {
		pt := points[pi]
		if pt.err != nil {
			allConserved = false
			failDetail = fmt.Sprintf("%s: %v", p.name, pt.err)
			tb.AddRow(p.name, "-", "-", "-", "-", "-", "-", "ERROR")
			continue
		}
		if !pt.conserved() {
			allConserved = false
			failDetail = fmt.Sprintf("%s: offered %d, accepted %d, rejected %d, served %d, %d duplicated",
				p.name, pt.offered, pt.accepted, pt.rejected, pt.served, pt.dupes)
		}
		if pt.maxDepth > servingQueueLimit {
			bounded = false
		}
		if pt.violations > 0 {
			worstLines = append(worstLines, fmt.Sprintf("- %s: %s", p.name, pt.worst))
			if pt.worstSpan != "" {
				worstLines = append(worstLines, fmt.Sprintf("  - lineage: %s", pt.worstSpan))
			}
		}
		tb.AddRow(p.name,
			fmt.Sprintf("%d", pt.offered),
			fmt.Sprintf("%d", pt.rejected),
			servingMS(pt.sketch, 0.50),
			servingMS(pt.sketch, 0.99),
			servingMS(pt.sketch, 0.999),
			fmt.Sprintf("%d", pt.maxDepth),
			fmt.Sprintf("%d", pt.violations))
	}
	if failDetail == "" {
		failDetail = "every policy served each admitted request exactly once"
	}
	body := tb.Render()
	if len(worstLines) > 0 {
		body += fmt.Sprintf("\n**Stage breakdown of the worst SLO violator:**\n\n%s\n",
			strings.Join(worstLines, "\n"))
	}
	rep.Body = body
	rep.Checks = []Check{
		check("requests conserved under the scripted schedule", allConserved, "%s", failDetail),
		check("gateway queue bounded by the admission limit", bounded,
			"peak depth <= %d for every policy", servingQueueLimit),
	}
	return rep
}
