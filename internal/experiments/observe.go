package experiments

// Observability captures. With Config.Observe set, each supported
// experiment additionally runs ONE small representative configuration of
// its workload with the full observability layer attached — a Chrome
// trace-event log (internal/trace.ChromeLog), a metrics registry
// (internal/obs.Registry), and a span-lineage collector
// (internal/span.Collector) subscribed to the runtime's hook bus — and
// stores the rendered artifacts in Report.Obs, including the critical-path
// attribution (-explain / -explain-out).
//
// The capture is deliberately a separate, fixed-size run executed serially
// AFTER the experiment's sweep (see RunMany): the sweep's points stay
// hook-free and byte-identical with and without -trace, and the capture
// itself never touches the worker pool, so serial and parallel invocations
// produce byte-identical capture files for the same seed — the property
// scripts/check.sh pins down.

import (
	"bytes"
	"fmt"

	"repro/internal/apps/nbia"
	"repro/internal/apps/vi"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/task"
	"repro/internal/trace"
)

// ObsCapture is one experiment's rendered observability artifacts.
type ObsCapture struct {
	// Trace is Chrome trace-event JSON (load in ui.perfetto.dev).
	Trace []byte
	// Metrics is the obs.Registry JSON document.
	Metrics []byte
	// Explain is the critical-path attribution artifact (span.Doc JSON).
	Explain []byte
	// ExplainText is the human-readable attribution summary.
	ExplainText string
	// Breakdown is the one-line makespan breakdown embedded in reports.
	Breakdown string
}

// captureTiles is the fixed workload of every NBIA capture run — small
// enough that a capture adds well under a second, large enough that DQAA,
// the demand protocol, and the transfer pipeline all leave visible tracks.
const captureTiles = 600

// RunCapture produces the observability capture for one experiment ID, or
// nil when the experiment has no capture (tables and studies whose
// workloads the figure captures already cover).
func RunCapture(cfg Config, id string) *ObsCapture {
	switch id {
	case "fig6":
		// Single GPU node, single-resolution 512px tiles, async copy: the
		// transfer-pipeline spans Figure 6 is about.
		return captureNBIA(nbiaCase{
			nodes: 1, tiles: captureTiles, levels: []int{512}, rate: 0,
			pol: gpuOnlyPol(), useGPU: true, cpuWorkers: 0, seed: cfg.Seed,
		}, nil)
	case "fig7", "table2":
		return captureVI(cfg.Seed)
	case "fig8":
		// One node, CPU+GPU cooperating under ODDS with recalculation.
		return captureNBIA(nbiaCase{
			nodes: 1, tiles: captureTiles, rate: 0.16,
			pol: policy.ODDS(), useGPU: true, cpuWorkers: -1, seed: cfg.Seed,
		}, nil)
	case "fig9", "fig10", "fig11", "fig12":
		// The heterogeneous two-node environment of Sections 6.4.1-6.4.2;
		// fig12's DQAA target trace appears as the dqaa counter tracks.
		return captureNBIA(nbiaCase{
			hetero: true, nodes: 2, tiles: captureTiles, rate: 0.10,
			pol: policy.ODDS(), useGPU: true, cpuWorkers: -1, seed: cfg.Seed,
		}, nil)
	case "fig13", "fig14":
		// The scaling study's shape at a small node count.
		return captureNBIA(nbiaCase{
			hetero: true, nodes: 3, tiles: captureTiles, rate: 0.08,
			pol: policy.ODDS(), useGPU: true, cpuWorkers: -1, seed: cfg.Seed,
		}, nil)
	case "chaos":
		return captureChaos(cfg)
	case "serving":
		return captureServing(cfg)
	case "policylab":
		return capturePolicylab(cfg)
	default:
		return nil
	}
}

// captureServing runs one representative open-system cell — ODDS at 0.7x
// capacity on the serving experiment's two-node pool (or the user's
// -arrivals spec) — with the observability layer attached, so the demo
// pipeline's admission, queueing, and transfer activity is inspectable as
// a trace, metrics document, and per-request attribution.
func captureServing(cfg Config) *ObsCapture {
	var times []sim.Time
	if cfg.ArrivalSpec != "" {
		sched, err := arrival.Parse(cfg.ArrivalSpec)
		if err != nil {
			panic(fmt.Sprintf("experiments: serving capture: %v", err))
		}
		times = sched.Times(cfg.Seed)
	} else {
		// 0.7*serve.Capacity is a constant expression, rounded once; the
		// capture's schedule depends on those exact bits.
		times = servingTimes(cfg, 0.7*serve.Capacity, cfg.Seed)
	}
	k := sim.NewKernel(cfg.Seed)
	cl := hw.NewCluster(k, serve.Pool(), nil)
	rt := core.New(cl, nil)
	log := trace.NewChromeLog()
	reg := obs.NewRegistry()
	col := span.NewCollector()
	log.Attach(rt)
	reg.Attach(rt)
	col.Attach(rt)
	serve.Pipeline(rt, "", 0, []int{0, 1}, policy.ODDS(), serve.DefaultQueueLimit, times, serve.Request)
	res, err := rt.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: serving capture failed: %v", err))
	}
	log.AddCluster(cl)
	return renderCapture(log, reg, col, res.Makespan, k.Now())
}

// capturePolicylab runs the lab's batch leg on the balanced shape with the
// affinity rival scheduler (its residency hooks wired), the configuration
// that distinguishes the lab from the paper-policy captures above.
func capturePolicylab(cfg Config) *ObsCapture {
	s := labShapes[0]
	defs := labPolicies(cfg.Seed, nil)
	def := defs[0]
	for _, d := range defs {
		if d.name == "AFFINITY" {
			def = d
			break
		}
	}
	pol := def.mk()
	hooks := labHooks(pol)
	k := sim.NewKernel(cfg.Seed)
	cl := s.cluster(k)
	log := trace.NewChromeLog()
	reg := obs.NewRegistry()
	col := span.NewCollector()
	res, err := nbia.Run(nbia.Config{
		Cluster:    cl,
		Tiles:      captureTiles,
		RecalcRate: labRecalc,
		Policy:     pol,
		UseGPU:     true,
		CPUWorkers: -1,
		AsyncCopy:  true,
		Weights:    nbia.WeightEstimator,
		Seed:       cfg.Seed + 17,
		Hooks: func(rt *core.Runtime) {
			log.Attach(rt)
			reg.Attach(rt)
			col.Attach(rt)
			if hooks != nil {
				hooks(rt)
			}
		},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: policylab capture failed: %v", err))
	}
	log.AddCluster(cl)
	return renderCapture(log, reg, col, res.Makespan, k.Now())
}

// captureNBIA runs one NBIA configuration with the observability layer
// attached and renders both artifacts.
func captureNBIA(c nbiaCase, sched *fault.Schedule) *ObsCapture {
	k := sim.NewKernel(c.seed)
	cl := nbia.HomoCluster(k, c.nodes)
	if c.hetero {
		cl = nbia.HeteroCluster(k, c.nodes)
	}
	log := trace.NewChromeLog()
	reg := obs.NewRegistry()
	col := span.NewCollector()
	res, err := nbia.Run(nbia.Config{
		Cluster:    cl,
		Tiles:      c.tiles,
		Levels:     c.levels,
		RecalcRate: c.rate,
		Policy:     c.pol,
		UseGPU:     c.useGPU,
		CPUWorkers: c.cpuWorkers,
		AsyncCopy:  !c.sync,
		Workers:    c.workers,
		Weights:    nbia.WeightEstimator,
		Seed:       c.seed + 17,
		Faults:     sched,
		Hooks: func(rt *core.Runtime) {
			log.Attach(rt)
			reg.Attach(rt)
			col.Attach(rt)
		},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: observability capture failed: %v", err))
	}
	log.AddCluster(cl)
	return renderCapture(log, reg, col, res.Makespan, k.Now())
}

// captureVI replays the Figure 7 workload — vector chunks incremented on a
// GPU behind the VI PCIe link — as a dataflow on the core runtime, so the
// capture shows the same transfer pipeline WITH the demand protocol, DQAA,
// and queue tracks around it. The vector filter sits on a CPU-only node and
// the incrementer on the GPU node, so data requests cross the network and
// DQAA visibly adapts its target.
func captureVI(seed int64) *ObsCapture {
	const (
		chunks    = 400
		chunkInts = 20_000
	)
	k := sim.NewKernel(seed)
	lc := vi.PaperLink
	cl := hw.NewCluster(k, []hw.NodeSpec{
		{CPUCores: 2},
		{CPUCores: 2, HasGPU: true, Link: &lc},
	}, nil)
	rt := core.New(cl, nil)
	log := trace.NewChromeLog()
	reg := obs.NewRegistry()
	col := span.NewCollector()
	log.Attach(rt)
	reg.Attach(rt)
	col.Attach(rt)
	src := rt.AddFilter(core.FilterSpec{
		Name: "vector", Placement: []int{0},
		SourceCount: func(int) int { return chunks },
		SourceMake: func(_, i int) *task.Task {
			return vi.ChunkTask(chunkInts)
		},
	})
	inc := rt.AddFilter(core.FilterSpec{
		Name: "incrementer", Placement: []int{1},
		UseGPU: true, CPUWorkers: 0, AsyncCopy: true,
		Handler: func(ctx *core.Ctx, t *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, inc, policy.ODDS())
	res, err := rt.Run()
	if err != nil {
		panic(fmt.Sprintf("experiments: VI capture failed: %v", err))
	}
	log.AddCluster(cl)
	return renderCapture(log, reg, col, res.Makespan, k.Now())
}

// captureChaos runs the chaos workload under a fault schedule so crash and
// window events appear as trace instants and fault counters. A scripted
// -faults spec takes priority; otherwise a fixed-intensity random schedule
// is drawn against the capture's own fault-free makespan.
func captureChaos(cfg Config) *ObsCapture {
	c := nbiaCase{
		hetero: true, nodes: 4, tiles: captureTiles, rate: 0.08,
		pol: policy.ODDS(), useGPU: true, cpuWorkers: -1, seed: cfg.Seed,
	}
	var sched *fault.Schedule
	if cfg.FaultSpec != "" {
		var err error
		sched, err = fault.Parse(cfg.FaultSpec)
		if err != nil {
			panic(fmt.Sprintf("experiments: chaos capture: %v", err))
		}
	} else {
		base := c.run()
		sched = fault.Random(PointSeed(cfg.Seed, 1<<20), 0.5, fault.Shape{
			Nodes:     c.nodes,
			GPUNodes:  gpuNodes(c.nodes),
			Horizon:   base.Makespan,
			Filter:    "nbia",
			Instances: c.nodes,
		})
	}
	return captureNBIA(c, sched)
}

// renderCapture closes the registry at the run horizon and renders every
// artifact, including the critical-path attribution built from the span
// collector at the run's makespan.
func renderCapture(log *trace.ChromeLog, reg *obs.Registry, col *span.Collector,
	makespan, horizon sim.Time) *ObsCapture {
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		panic(fmt.Sprintf("experiments: trace render failed: %v", err))
	}
	reg.Finish(horizon)
	mj, err := reg.JSON()
	if err != nil {
		panic(fmt.Sprintf("experiments: metrics render failed: %v", err))
	}
	attr, err := col.Build(makespan)
	if err != nil {
		panic(fmt.Sprintf("experiments: attribution build failed: %v", err))
	}
	ej, err := attr.Encode()
	if err != nil {
		panic(fmt.Sprintf("experiments: attribution render failed: %v", err))
	}
	return &ObsCapture{
		Trace: buf.Bytes(), Metrics: mj,
		Explain: ej, ExplainText: attr.Summary(), Breakdown: attr.Breakdown(),
	}
}
