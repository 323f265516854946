package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/apps/nbia"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
)

// scaleSpec is one point of the heterogeneous scaling study (Figure 14).
type scaleSpec struct {
	tiles int
	pol   func() policy.StreamPolicy
}

const (
	scaleNodes = 14
	recalcRate = 0.08
)

var scaleSpecs = map[string]scaleSpec{
	// Figure 14's largest DDWRR point: almost every demand request is
	// answered empty, so host time is the event heap and message path.
	"scale_ddwrr": {tiles: 26742, pol: func() policy.StreamPolicy { return policy.DDWRR(32) }},
	// The paper-scale ODDS point: DBSA ranked pops over estimator
	// speedups, DQAA target changes and GPU transfer batches.
	"scale_odds": {tiles: 267420, pol: policy.ODDS},
}

// scaleInputs are the generated inputs of a scaling run.
type scaleInputs struct {
	kernelSeed  int64
	profileSeed int64
	offset      uint64 // tile region of the synthetic slide
}

func scaleInputsFor(seed int64) scaleInputs {
	r := rand.New(rand.NewSource(seed))
	return scaleInputs{kernelSeed: r.Int63(), profileSeed: r.Int63(), offset: uint64(r.Int63n(1 << 32))}
}

// scaleVirt is what a run models; every run of one seed must agree on it.
type scaleVirt struct {
	makespan  float64
	completed int64
	gpuBusy   float64
	cpuBusy   float64
	netMB     float64
	pcieMB    float64
}

type scaleRun struct {
	setup, wall time.Duration
	hooked      time.Time
	alloc       allocDelta
	virt        scaleVirt
}

// scaleConfig is the nbia.Run configuration of one scaling run.
func scaleConfig(sp scaleSpec, in scaleInputs, hooks func(*core.Runtime)) nbia.Config {
	return nbia.Config{
		Cluster:    nbia.HeteroCluster(sim.NewKernel(in.kernelSeed), scaleNodes),
		Tiles:      sp.tiles,
		RecalcRate: recalcRate,
		Policy:     sp.pol(),
		UseGPU:     true,
		CPUWorkers: -1,
		AsyncCopy:  true,
		Weights:    nbia.WeightEstimator,
		Seed:       in.profileSeed,
		IDOffset:   in.offset,
		Hooks:      hooks,
	}
}

// runScale generates the inputs, builds the cluster and calls nbia.Run.
// Set-up runs from `from` to the Hooks callback; the measured call from
// there to the return of nbia.Run. attach, if set, subscribes to the hook
// bus.
func runScale(sp scaleSpec, seed int64, from time.Time, attach func(*core.Runtime)) (scaleRun, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mem := watchMem()
	var r scaleRun
	in := scaleInputsFor(seed)
	res, err := nbia.Run(scaleConfig(sp, in, func(rt *core.Runtime) {
		if attach != nil {
			attach(rt)
		}
		r.hooked = time.Now()
	}))
	end := time.Now()
	r.alloc = allocSince(&m0)
	r.alloc.peakMB = mem.peak()
	if err != nil {
		return r, fmt.Errorf("nbia.Run: %w", err)
	}
	r.setup, r.wall = r.hooked.Sub(from), end.Sub(r.hooked)
	if want := nbia.ExpectedLineages(sp.tiles, nbia.DefaultLevels, recalcRate, in.offset); res.Completed != want {
		return r, fmt.Errorf("completed %d lineages, want %d", res.Completed, want)
	}
	r.virt = virtOf(res)
	return r, nil
}

// abandonRun is the panic value that stops nbia.Run at its Hooks callback.
type abandonRun struct{}

// timeScaleSetup times one set-up alone, from `from` to the Hooks callback,
// and abandons the run there, before the runtime has started any process.
func timeScaleSetup(sp scaleSpec, seed int64, from time.Time) (d time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abandonRun); !ok {
				panic(r)
			}
		}
	}()
	_, _ = nbia.Run(scaleConfig(sp, scaleInputsFor(seed), func(*core.Runtime) {
		d = time.Since(from)
		panic(abandonRun{})
	}))
	return d
}

func virtOf(res *nbia.Result) scaleVirt {
	v := scaleVirt{makespan: float64(res.Makespan), completed: res.Completed,
		netMB: float64(res.Cluster.Net.TotalBytes()) / 1e6}
	var gpuBusy, cpuBusy float64
	var gpus, cpus int
	for _, n := range res.Cluster.Nodes {
		for _, c := range n.CPUs {
			cpuBusy += float64(c.Busy())
			cpus++
		}
		if n.GPU != nil {
			gpuBusy += float64(n.GPU.Busy())
			gpus++
			v.pcieMB += float64(n.Link.Traffic(hw.HostToDevice)+n.Link.Traffic(hw.DeviceToHost)) / 1e6
		}
	}
	if v.makespan > 0 {
		v.gpuBusy = gpuBusy / (float64(gpus) * v.makespan)
		v.cpuBusy = cpuBusy / (float64(cpus) * v.makespan)
	}
	return v
}

// scaleCounts are the hook-bus counts of one traced run; every traced run
// of one seed must agree on them.
type scaleCounts struct {
	demand    [4]int64 // by core.DemandEvent
	sends     int64
	delivers  int64
	processed [hw.NumKinds]int64
	hires     int64 // processed tiles at the highest pyramid level
	hiresGPU  int64
	targets   int64
	spans     [3]int64 // by xfer.SpanKind
	depthSum  int64    // send-queue depth over every depth change
	depthN    int64
}

// scaleTracer is the counting subscriber of traced scaling runs.
type scaleTracer struct {
	c         scaleCounts
	deliverAt map[uint64]sim.Time
	waits     []float64 // virtual s from Deliver to processing start
}

func (t *scaleTracer) attach(rt *core.Runtime) {
	t.c = scaleCounts{}
	t.deliverAt = map[uint64]sim.Time{}
	t.waits = t.waits[:0]
	hires := float64(nbia.DefaultLevels[len(nbia.DefaultLevels)-1])
	rt.Hooks.Demand = func(r core.DemandRecord) { t.c.demand[r.Event]++ }
	rt.Hooks.Send = func(core.SendRecord) { t.c.sends++ }
	rt.Hooks.Deliver = func(r core.DeliverRecord) {
		t.c.delivers++
		t.deliverAt[r.TaskID] = r.At
	}
	rt.Hooks.Process = func(r core.ProcRecord) {
		t.c.processed[r.Kind]++
		if len(r.Params) > 0 && r.Params[0] == hires {
			t.c.hires++
			if r.Kind == hw.GPU {
				t.c.hiresGPU++
			}
		}
		if at, ok := t.deliverAt[r.TaskID]; ok {
			t.waits = append(t.waits, float64(r.Start-at))
			delete(t.deliverAt, r.TaskID)
		}
	}
	rt.Hooks.Target = func(core.TargetRecord) { t.c.targets++ }
	rt.Hooks.Span = func(r core.SpanRecord) { t.c.spans[r.Kind]++ }
	rt.Hooks.QueueDepth = func(r core.QueueDepthRecord) {
		if r.Queue == "send" {
			t.c.depthSum += int64(r.Depth)
			t.c.depthN++
		}
	}
}

// setupReps is how many set-ups a scaling run times on their own, besides
// the set-up of every measured run.
const setupReps = 9

func runScaleWorkload(b *bench, sp scaleSpec) error {
	if b.trace {
		return traceScale(b, sp)
	}
	var setup, wall []float64
	for i := 0; i < setupReps; i++ {
		from := processStart
		if i > 0 {
			from = time.Now()
		}
		setup = append(setup, timeScaleSetup(sp, b.seed, from).Seconds())
	}
	var allocs []allocDelta
	var ref scaleVirt
	start := time.Now()
	for i := 0; b.measuring(start, i); i++ {
		debug.FreeOSMemory() // every run starts from a collected heap and resident set
		r, err := runScale(sp, b.seed, time.Now(), nil)
		if err == nil && i > 0 && r.virt != ref {
			err = fmt.Errorf("modelled result %+v differs from the first run's %+v", r.virt, ref)
		}
		b.op(r.wall, err)
		if err != nil {
			continue
		}
		if i == 0 {
			ref = r.virt
		}
		setup = append(setup, r.setup.Seconds())
		wall = append(wall, r.wall.Seconds())
		allocs = append(allocs, r.alloc)
	}
	if len(wall) == 0 {
		return nil
	}
	b.setCommon(setup, wall, allocs, float64(ref.completed), ref.makespan)
	return nil
}

// traceScale makes a warm-up run, alternates traced and untraced runs for
// the measuring window, then runs the layer ladder, and reports the
// per-layer metrics.
func traceScale(b *bench, sp scaleSpec) error {
	debug.FreeOSMemory()
	r, err := runScale(sp, b.seed, time.Now(), nil)
	b.op(r.wall, err)
	if err != nil {
		return nil
	}
	ref := r.virt
	var plain, traced, gcs []float64
	var refCounts scaleCounts
	tr := &scaleTracer{}
	prof := newProfiler()
	b.spans.on = true // only traced runs record spans
	start := time.Now()
	for i := 0; b.measuring(start, i); i++ {
		debug.FreeOSMemory()
		if err := prof.start(); err != nil {
			return err
		}
		from := time.Now()
		r, err := runScale(sp, b.seed, from, tr.attach)
		if perr := prof.stop(); perr != nil {
			return perr
		}
		if err == nil && r.virt != ref {
			err = fmt.Errorf("traced modelled result %+v differs from the untraced %+v", r.virt, ref)
		}
		if err == nil && i > 0 && tr.c != refCounts {
			err = fmt.Errorf("hook counts %+v differ from the first traced run's %+v", tr.c, refCounts)
		}
		b.op(r.wall, err)
		if err == nil {
			if i == 0 {
				refCounts = tr.c
			}
			op := b.spans.add("op", 0, from, r.hooked.Add(r.wall))
			b.spans.add("setup", op, from, r.hooked)
			b.spans.add("run", op, r.hooked, r.hooked.Add(r.wall))
			traced = append(traced, r.wall.Seconds())
		}

		debug.FreeOSMemory()
		r, err = runScale(sp, b.seed, time.Now(), nil)
		if err == nil && r.virt != ref {
			err = fmt.Errorf("modelled result %+v differs from the first run's %+v", r.virt, ref)
		}
		b.op(r.wall, err)
		if err == nil {
			plain = append(plain, r.wall.Seconds())
			gcs = append(gcs, float64(r.alloc.gcs))
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil
	}
	c := refCounts
	b.set("trace_overhead_pct", "%", 100*(median(traced)/median(plain)-1))
	b.set("runtime.gc_cycles", "count", median(gcs))
	b.set("core.demand_issued", "count", float64(c.demand[core.DemandIssued]))
	b.set("core.demand_empty", "count", float64(c.demand[core.DemandEmpty]))
	b.set("core.demand_hit_ratio", "ratio", ratio(c.demand[core.DemandData], c.demand[core.DemandIssued]))
	b.set("core.sends", "count", float64(c.sends))
	b.set("core.delivers", "count", float64(c.delivers))
	b.set("core.processed_cpu", "count", float64(c.processed[hw.CPU]))
	b.set("core.processed_gpu", "count", float64(c.processed[hw.GPU]))
	b.set("core.inqueue_wait_ms_p50", "virt_ms", quantile(tr.waits, 0.50)*1e3)
	b.set("core.inqueue_wait_ms_p99", "virt_ms", quantile(tr.waits, 0.99)*1e3)
	b.set("policy.dqaa_target_changes", "count", float64(c.targets))
	b.set("policy.gpu_hires_share", "ratio", ratio(c.hiresGPU, c.hires))
	b.set("xfer.h2d_spans", "count", float64(c.spans[0]))
	b.set("xfer.kernel_spans", "count", float64(c.spans[1]))
	b.set("xfer.d2h_spans", "count", float64(c.spans[2]))
	b.set("hw.gpu_busy_frac", "ratio", ref.gpuBusy)
	b.set("hw.cpu_busy_frac", "ratio", ref.cpuBusy)
	b.set("hw.net_mb", "MB", ref.netMB)
	b.set("hw.pcie_mb", "MB", ref.pcieMB)
	depth := 1.0
	if c.depthN > 0 {
		depth = float64(c.depthSum) / float64(c.depthN)
	}
	return b.finishTrace(prof, depth)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
