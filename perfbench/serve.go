package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/arrival"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve_live arrivals: a diurnal burst whose base rate (2000/s) is
// below one pipeline's serve.Capacity (~5333/s) and whose crest (7000/s)
// is above it, so every pipeline both idles and sheds.
const (
	serveArrivals = 30000
	serveBase     = 2000
	servePeak     = 3.5
	servePeriod   = sim.Time(1)
	// The engine is advanced in 10 ms virtual ticks with a frame every
	// tick and a /metrics scrape every 10th, as anthill-serve does.
	serveTick   = 10 * sim.Millisecond
	scrapeEvery = 10
)

func serveSchedule() *arrival.Schedule {
	return &arrival.Schedule{Procs: []arrival.Proc{{
		Kind: arrival.Burst, Rate: serveBase, N: serveArrivals, Peak: servePeak, Period: servePeriod,
	}}}
}

// serveInputs are the generated inputs of a serving run.
type serveInputs struct {
	kernelSeed  int64
	arrivalSeed int64
}

func serveInputsFor(seed int64) serveInputs {
	r := rand.New(rand.NewSource(seed))
	return serveInputs{kernelSeed: r.Int63(), arrivalSeed: r.Int63()}
}

// serveVirt is what a run models; every run of one seed must agree on it.
type serveVirt struct {
	makespan   float64
	offered    int
	shed       int
	served     int
	violations int
	maxDepth   int
	p99ms      float64 // worst cumulative p99 over the pipelines
}

type serveRun struct {
	setup, wall time.Duration
	alloc       allocDelta
	virt        serveVirt
	steps       []float64 // host ms per tick: Advance + Frame
	scrapes     []float64 // host ms per WritePromText
	depthSum    float64   // gateway send-queue depth summed over ticks and pipelines
	depthN      int
	prom        []byte // /metrics payload after the drain
}

// runServe generates the arrival instants, builds the engine, and drives it
// tick by tick until it drains. Set-up runs from `from` to the first
// Advance. With spans on, every tick records its Advance, Frame and scrape.
func runServe(seed int64, from time.Time, spans *spanLog) (serveRun, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mem := watchMem()
	var r serveRun
	in := serveInputsFor(seed)
	times := serveSchedule().Times(in.arrivalSeed)
	eng, err := serve.New(serve.Config{Seed: in.kernelSeed, Times: times})
	if err != nil {
		return r, fmt.Errorf("serve.New: %w", err)
	}
	ready := time.Now()
	r.setup = ready.Sub(from)
	op := spans.add("op", 0, from, time.Time{})
	spans.add("setup", op, from, ready)
	run := spans.add("run", op, ready, time.Time{})
	var prom bytes.Buffer
	var f serve.Frame
	for tick := 1; ; tick++ {
		t0 := time.Now()
		done, err := eng.Advance(sim.Time(tick) * serveTick)
		t1 := time.Now()
		f = eng.Frame()
		t2 := time.Now()
		r.steps = append(r.steps, float64(t2.Sub(t0).Nanoseconds())/1e6)
		tk := spans.add("tick", run, t0, time.Time{})
		spans.add("advance", tk, t0, t1)
		spans.add("frame", tk, t1, t2)
		if err != nil {
			return r, fmt.Errorf("advance to tick %d: %w", tick, err)
		}
		for _, p := range f.Pipes {
			r.depthSum += float64(p.QueueDepth)
			r.depthN++
		}
		if tick%scrapeEvery == 0 || done {
			prom.Reset()
			if err := eng.WritePromText(&prom); err != nil {
				return r, fmt.Errorf("WritePromText: %w", err)
			}
			t3 := time.Now()
			r.scrapes = append(r.scrapes, float64(t3.Sub(t2).Nanoseconds())/1e6)
			spans.add("scrape", tk, t2, t3)
		}
		spans.end(tk)
		if done {
			r.virt.makespan = float64(sim.Time(tick) * serveTick)
			break
		}
	}
	r.wall = time.Since(ready)
	spans.end(run)
	spans.end(op)
	r.alloc = allocSince(&m0)
	r.alloc.peakMB = mem.peak()
	r.prom = prom.Bytes()
	return r, checkServe(&r, f, len(times))
}

// checkServe fills the modelled result from the drained frame and checks
// the engine's admission invariants for every pipeline.
func checkServe(r *serveRun, f serve.Frame, arrivals int) error {
	if !f.Done {
		return fmt.Errorf("engine did not drain")
	}
	for _, p := range f.Pipes {
		switch {
		case p.Offered != arrivals:
			return fmt.Errorf("%s: offered %d, want %d", p.Policy, p.Offered, arrivals)
		case p.Offered != p.Accepted+p.Shed:
			return fmt.Errorf("%s: offered %d != accepted %d + shed %d", p.Policy, p.Offered, p.Accepted, p.Shed)
		case p.Served != p.Accepted:
			return fmt.Errorf("%s: served %d != accepted %d", p.Policy, p.Served, p.Accepted)
		}
		r.virt.offered += p.Offered
		r.virt.shed += p.Shed
		r.virt.served += p.Served
		r.virt.violations += p.Violations
		r.virt.maxDepth = max(r.virt.maxDepth, p.MaxQueueDepth)
		r.virt.p99ms = max(r.virt.p99ms, p.CumP99ms)
	}
	return nil
}

func runServeWorkload(b *bench) error {
	if b.trace {
		return traceServe(b)
	}
	var setup, wall []float64
	var allocs []allocDelta
	var ref serveVirt
	start := time.Now()
	for i := 0; b.measuring(start, i); i++ {
		from := processStart
		if i > 0 {
			debug.FreeOSMemory() // every run starts from a collected heap and resident set
			from = time.Now()
		}
		r, err := runServe(b.seed, from, b.spans)
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
	b.setCommon(setup, wall, allocs, float64(ref.served), ref.makespan)
	return nil
}

// traceServe makes a warm-up run, alternates traced and untraced runs for
// the measuring window, then runs the layer ladder, and reports the
// per-layer metrics. Tick timings come from the untraced runs.
func traceServe(b *bench) error {
	debug.FreeOSMemory()
	r, err := runServe(b.seed, time.Now(), b.spans)
	b.op(r.wall, err)
	if err != nil {
		return nil
	}
	ref := r.virt
	var plain, traced, steps, scrapes, gcs []float64
	var last serveRun
	prof := newProfiler()
	start := time.Now()
	for i := 0; b.measuring(start, i); i++ {
		debug.FreeOSMemory()
		if err := prof.start(); err != nil {
			return err
		}
		b.spans.on = true
		r, err := runServe(b.seed, time.Now(), b.spans)
		b.spans.on = false
		if perr := prof.stop(); perr != nil {
			return perr
		}
		if err == nil && r.virt != ref {
			err = fmt.Errorf("traced modelled result %+v differs from the untraced %+v", r.virt, ref)
		}
		b.op(r.wall, err)
		if err == nil {
			traced = append(traced, r.wall.Seconds())
			last = r
		}

		debug.FreeOSMemory()
		r, err = runServe(b.seed, time.Now(), b.spans)
		if err == nil && r.virt != ref {
			err = fmt.Errorf("modelled result %+v differs from the first run's %+v", r.virt, ref)
		}
		b.op(r.wall, err)
		if err == nil {
			plain = append(plain, r.wall.Seconds())
			steps = append(steps, r.steps...)
			scrapes = append(scrapes, r.scrapes...)
			gcs = append(gcs, float64(r.alloc.gcs))
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil
	}
	b.set("trace_overhead_pct", "%", 100*(median(traced)/median(plain)-1))
	b.set("runtime.gc_cycles", "count", median(gcs))
	b.set("serve.step_ms_p50", "ms", quantile(steps, 0.50))
	b.set("serve.step_ms_p99", "ms", quantile(steps, 0.99))
	b.set("serve.scrape_ms_p50", "ms", quantile(scrapes, 0.50))
	b.set("serve.advance_ms_p50", "ms", quantile(b.spans.durationsMS("advance"), 0.50))
	b.set("serve.frame_ms_p50", "ms", quantile(b.spans.durationsMS("frame"), 0.50))
	b.set("serve.offered", "count", float64(ref.offered))
	b.set("serve.shed", "count", float64(ref.shed))
	b.set("serve.served", "count", float64(ref.served))
	b.set("serve.max_queue_depth", "count", float64(ref.maxDepth))
	b.set("serve.virt_p99_ms", "virt_ms", ref.p99ms)
	// A shed request and a request served past the SLO both miss it.
	b.set("serve.slo_miss_frac", "ratio", float64(ref.shed+ref.violations)/float64(ref.offered))
	fam := parseProm(last.prom)
	b.set("core.demand_issued", "count", fam.sum("anthill_demand_total", "event", "issued"))
	b.set("core.demand_empty", "count", fam.sum("anthill_demand_total", "event", "empty"))
	if issued := fam.sum("anthill_demand_total", "event", "issued"); issued > 0 {
		b.set("core.demand_hit_ratio", "ratio", fam.sum("anthill_demand_total", "event", "data")/issued)
	}
	b.set("core.sends", "count", fam.sum("anthill_stream_sends_total", "", ""))
	b.set("core.delivers", "count", fam.sum("anthill_stream_delivers_total", "", ""))
	b.set("core.processed_cpu", "count", fam.sum("anthill_events_processed_total", "dev", "CPU"))
	b.set("core.processed_gpu", "count", fam.sum("anthill_events_processed_total", "dev", "GPU"))
	b.set("xfer.h2d_spans", "count", fam.sum("anthill_xfer_spans_total", "kind", "h2d"))
	b.set("xfer.kernel_spans", "count", fam.sum("anthill_xfer_spans_total", "kind", "kernel"))
	b.set("xfer.d2h_spans", "count", fam.sum("anthill_xfer_spans_total", "kind", "d2h"))
	depth := 1.0
	if last.depthN > 0 {
		depth = last.depthSum / float64(last.depthN)
	}
	return b.finishTrace(prof, depth)
}
