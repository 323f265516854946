package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/apps/nbia"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/task"
	"repro/internal/xfer"
)

// The layer ladder times isolated public calls of each layer, with inputs
// shaped like the workloads: NBIA tile sizes and costs, the paper's PCIe
// link, the serving pipeline's records. Each rung runs a fixed count of
// operations ladderReps times and reports the median ns/op and the
// allocations per op.

const ladderReps = 5

// rung times fn(n) and returns ns/op and allocs/op, both medians over
// ladderReps repetitions.
func rung(n int, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	ns := make([]float64, ladderReps)
	allocs := make([]float64, ladderReps)
	for i := range ns {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns[i] = float64(d.Nanoseconds()) / float64(n)
		allocs[i] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	return median(ns), median(allocs)
}

// runKernel runs k to completion; the ladder's kernels cannot fail unless
// the program is broken.
func runKernel(k *sim.Kernel) {
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("perfbench: ladder kernel: %v", err))
	}
}

// ladder runs every rung. depth is the mean send-queue depth the traced
// run observed, at which the policy queue is timed.
func (b *bench) ladder(depth float64) error {
	seed := b.seed

	// sim: 64 concurrent After chains keep the event heap as deep as a
	// 14-node cluster's workers do.
	ns, allocs := rung(200_000, func(n int) {
		k := sim.NewKernel(seed)
		const chains = 64
		for c := 0; c < chains; c++ {
			left := n / chains
			period := sim.Time(c+1) * sim.Microsecond
			var step sim.Step
			step = func(*sim.Env) sim.Cont {
				if left--; left <= 0 {
					return sim.Done()
				}
				return sim.After(period, step)
			}
			k.SpawnStep("chain", step)
		}
		runKernel(k)
	})
	b.set("sim.ns_per_event", "ns", ns)
	b.set("sim.allocs_per_event", "allocs", allocs)

	// sim: one request/reply round over two channels, the shape of a
	// demand fetch.
	ns, _ = rung(50_000, func(n int) {
		k := sim.NewKernel(seed)
		req, rep := sim.NewChan[int](k, 0), sim.NewChan[int](k, 0)
		left := n
		var client, server sim.Step
		client = func(e *sim.Env) sim.Cont {
			return req.PutThen(e, left, func(e *sim.Env) sim.Cont {
				return rep.GetThen(e, func(e *sim.Env, _ int, _ bool) sim.Cont {
					if left--; left <= 0 {
						req.Close(e)
						return sim.Done()
					}
					return client(e)
				})
			})
		}
		server = func(e *sim.Env) sim.Cont {
			return req.GetThen(e, func(e *sim.Env, v int, ok bool) sim.Cont {
				if !ok {
					return sim.Done()
				}
				return rep.PutThen(e, v, server)
			})
		}
		k.SpawnStep("server", server)
		k.SpawnStep("client", client)
		runKernel(k)
	})
	b.set("sim.chan_round_ns", "ns", ns)

	// hw: network sends of low- and high-resolution tiles between nodes.
	sizes := []int64{nbia.TileBytes(nbia.DefaultLevels[0]), nbia.TileBytes(nbia.DefaultLevels[1])}
	ns, allocs = rung(20_000, func(n int) {
		k := sim.NewKernel(seed)
		cl := nbia.HeteroCluster(k, 2)
		i := 0
		var step sim.Step
		step = func(e *sim.Env) sim.Cont {
			if i == n {
				return sim.Done()
			}
			i++
			return cl.Net.SendThen(e, cl.Nodes[0], cl.Nodes[1], sizes[i%2], step)
		}
		k.SpawnStep("send", step)
		runKernel(k)
	})
	b.set("hw.send_ns", "ns", ns)
	b.set("hw.send_allocs", "allocs", allocs)

	// hw: PCIe copies of high-resolution tiles over the paper's link.
	ns, _ = rung(50_000, func(n int) {
		k := sim.NewKernel(seed)
		link := hw.NewLink(k, nbia.PaperLink)
		i := 0
		var step sim.Step
		step = func(e *sim.Env) sim.Cont {
			if i == n {
				return sim.Done()
			}
			i++
			return link.CopyThen(e, sizes[1], hw.Direction(i%2), step)
		}
		k.SpawnStep("copy", step)
		runKernel(k)
	})
	b.set("hw.copy_ns", "ns", ns)

	// core: demand fetch rounds through a two-filter runtime, per buffer
	// fetched (runtime construction included).
	ns, allocs = rung(10_000, func(n int) {
		k := sim.NewKernel(seed)
		rt := core.New(hw.NewCluster(k, []hw.NodeSpec{hw.CPUOnlyNode(), hw.CPUOnlyNode()}, nil), nil)
		src := rt.AddFilter(core.FilterSpec{
			Name: "src", Placement: []int{0},
			SourceCount: func(int) int { return n },
			SourceMake: func(_, i int) *task.Task {
				return &task.Task{Params: []float64{32}, Size: sizes[0], OutSize: 64,
					Cost: func(hw.Kind) sim.Time { return 10 * sim.Microsecond }}
			},
		})
		dst := rt.AddFilter(core.FilterSpec{
			Name: "work", Placement: []int{1}, CPUWorkers: -1,
			Handler: func(*core.Ctx, *task.Task) core.Action { return core.Action{} },
		})
		rt.Connect(src, dst, policy.DDFCFS(4))
		if _, err := rt.Run(); err != nil {
			panic(fmt.Sprintf("perfbench: ladder runtime: %v", err))
		}
	})
	b.set("core.fetch_ns", "ns", ns)
	b.set("core.fetch_allocs", "allocs", allocs)

	// policy: drain a queue filled to twice the traced mean depth, so pops
	// see that depth on average; each pop is paired with its push.
	d := max(1, int(2*depth+0.5))
	prof := nbia.BuildProfile(nbia.DefaultLevels, 30, seed)
	est := estimator.New(prof, 2)
	tasks := make([]*task.Task, d)
	for i := range tasks {
		edge := float64(nbia.DefaultLevels[i%2])
		t := &task.Task{ID: uint64(i + 1), Seq: uint64(i), Params: []float64{edge}}
		t.Weight[hw.CPU], t.Weight[hw.GPU] = 1, est.Speedup(hw.GPU, t.Params, nil)
		t.ComputeKeys()
		tasks[i] = t
	}
	gpuScore := func(t *task.Task) float64 { return t.Key[hw.GPU] }
	queueRung := func(pop func(q *policy.Queue) *task.Task) float64 {
		ns, _ := rung(50_000, func(n int) {
			q := policy.NewQueue(policy.Sorted)
			for done := 0; done < n; done += d {
				for _, t := range tasks {
					q.Push(t)
				}
				for range tasks {
					pop(q)
				}
			}
		})
		return ns
	}
	b.set("policy.pop_ranked_ns", "ns", queueRung(func(q *policy.Queue) *task.Task { return q.PopRanked(gpuScore) }))
	b.set("policy.pop_for_ns", "ns", queueRung(func(q *policy.Queue) *task.Task { return q.PopFor(hw.GPU) }))
	b.set("policy.queue_depth", "count", depth)

	// estimator: GPU speedup predictions for both pyramid levels, and the
	// phase-one profile build nbia.Run does before every run.
	ns, allocs = rung(50_000, func(n int) {
		ps := [][]float64{{32}, {512}}
		for i := 0; i < n; i++ {
			est.Speedup(hw.GPU, ps[i%2], nil)
		}
	})
	b.set("estimator.speedup_ns", "ns", ns)
	b.set("estimator.speedup_allocs", "allocs", allocs)
	ns, _ = rung(20, func(n int) {
		for i := 0; i < n; i++ {
			estimator.New(nbia.BuildProfile(nbia.DefaultLevels, 30, seed+int64(i)), 2)
		}
	})
	b.set("estimator.profile_build_ms", "ms", ns/1e6)

	// xfer: asynchronous batches of four high-resolution tiles.
	ns, _ = rung(5_000, func(n int) {
		k := sim.NewKernel(seed)
		x := xfer.NewExecutor(hw.NewDevice(k, hw.GPU, 0), hw.NewLink(k, nbia.PaperLink), true)
		batch := make([]*task.Task, 4)
		for i := range batch {
			id := uint64(i)
			batch[i] = &task.Task{ID: id + 1, Params: []float64{512}, Size: sizes[1], OutSize: 64,
				Cost: func(kind hw.Kind) sim.Time { return nbia.GPUKernelTime(id, 512, 1) }}
		}
		k.Spawn("batches", func(e *sim.Env) {
			for i := 0; i < n; i++ {
				x.RunBatch(e, batch)
			}
		})
		runKernel(k)
	})
	b.set("xfer.run_batch_ns", "ns", ns)

	// obs: sketch inserts of serving latencies, and sliding-window p99
	// queries over the engine's default window.
	rng := rand.New(rand.NewSource(seed))
	lat := make([]float64, 4096)
	for i := range lat {
		lat[i] = float64(sim.Millisecond) * rng.ExpFloat64()
	}
	ns, _ = rung(50_000, func(n int) {
		s := obs.NewSketch(obs.DefaultEps)
		for i := 0; i < n; i++ {
			s.Add(lat[i%len(lat)])
		}
	})
	b.set("obs.sketch_insert_ns", "ns", ns)
	win := obs.NewWindowedSketch(obs.DefaultEps, serve.DefaultWindow, serve.DefaultWindows)
	horizon := serve.DefaultWindow * sim.Time(serve.DefaultWindows)
	for i := 0; i < 1000; i++ { // 5000 requests/s over the window
		win.Add(horizon*sim.Time(i)/1000, lat[i])
	}
	ns, _ = rung(500, func(n int) {
		for i := 0; i < n; i++ {
			win.Quantile(horizon, 0.99)
		}
	})
	b.set("obs.window_quantile_ns", "ns", ns)

	// obs and span subscribers: replay the hook records of a small serving
	// run through the bus funcs Registry.Attach and Collector.Attach
	// install, per record.
	log, roots, col, err := captureServing(seed)
	if err != nil {
		return err
	}
	replay := func(attach func(*core.Runtime)) float64 {
		ns, _ := rung(len(log), func(n int) {
			rt := core.New(hw.NewCluster(sim.NewKernel(seed), []hw.NodeSpec{hw.CPUOnlyNode()}, nil), nil)
			attach(rt)
			for _, rec := range log[:n] {
				rec(&rt.Hooks)
			}
		})
		return ns
	}
	b.set("obs.record_ns", "ns", replay(func(rt *core.Runtime) { obs.NewRegistry().Attach(rt) }))
	b.set("span.record_ns", "ns", replay(func(rt *core.Runtime) { span.NewCollector().Attach(rt) }))
	ns, _ = rung(min(len(roots), 300), func(n int) {
		for _, id := range roots[:n] {
			if _, err := col.BuildRequest(id); err != nil {
				panic(fmt.Sprintf("perfbench: BuildRequest(%d): %v", id, err))
			}
		}
	})
	b.set("span.build_request_ms", "ms", ns/1e6)

	// arrival: expanding the serve_live schedule.
	ns, _ = rung(1, func(int) { serveSchedule().Times(seed) })
	b.set("arrival.times_ms", "ms", ns/1e6)
	return nil
}

// captureServing runs one small serving pipeline shaped like one of the
// serve engine's (gateway -> CPU+GPU pool, bursty arrivals, DDWRR, the
// engine's per-request costs) with a span collector attached, and returns
// its hook records in emission order, the admitted request IDs, and the
// collector.
func captureServing(seed int64) (log []func(*core.Bus), roots []uint64, col *span.Collector, err error) {
	k := sim.NewKernel(seed)
	rt := core.New(hw.NewCluster(k, []hw.NodeSpec{hw.CPUOnlyNode(), hw.PaperNode()}, nil), nil)
	gw := rt.AddFilter(core.FilterSpec{Name: "gateway", Placement: []int{0}, Open: true, QueueLimit: serve.DefaultQueueLimit})
	srv := rt.AddFilter(core.FilterSpec{
		Name: "serve", Placement: []int{0, 1}, CPUWorkers: 1, UseGPU: true, GPUWorkers: 1,
		Handler: func(*core.Ctx, *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(gw, srv, policy.DDWRR(32))
	sched := &arrival.Schedule{Procs: []arrival.Proc{{
		Kind: arrival.Burst, Rate: serveBase, N: 3000, Peak: servePeak, Period: servePeriod / 4,
	}}}
	arrival.Drive(rt, gw, sched.Times(seed), func(int) *task.Task {
		return &task.Task{Size: 8 << 10, OutSize: 1 << 10, Cost: func(kw hw.Kind) sim.Time {
			if kw == hw.GPU {
				return 300 * sim.Microsecond
			}
			return sim.Millisecond
		}}
	})
	rt.Hooks = core.Bus{
		Process:    logTo(&log, func(b *core.Bus) func(core.ProcRecord) { return b.Process }),
		Target:     logTo(&log, func(b *core.Bus) func(core.TargetRecord) { return b.Target }),
		QueueDepth: logTo(&log, func(b *core.Bus) func(core.QueueDepthRecord) { return b.QueueDepth }),
		Demand:     logTo(&log, func(b *core.Bus) func(core.DemandRecord) { return b.Demand }),
		Send:       logTo(&log, func(b *core.Bus) func(core.SendRecord) { return b.Send }),
		Emit:       logTo(&log, func(b *core.Bus) func(core.EmitRecord) { return b.Emit }),
		Deliver:    logTo(&log, func(b *core.Bus) func(core.DeliverRecord) { return b.Deliver }),
		Span:       logTo(&log, func(b *core.Bus) func(core.SpanRecord) { return b.Span }),
	}
	admit := logTo(&log, func(b *core.Bus) func(core.AdmitRecord) { return b.Admit })
	rt.Hooks.Admit = func(r core.AdmitRecord) {
		if r.Accepted {
			roots = append(roots, r.TaskID)
		}
		admit(r)
	}
	col = span.NewCollector()
	col.Attach(rt)
	if _, err := rt.Run(); err != nil {
		return nil, nil, nil, fmt.Errorf("capture serving run: %w", err)
	}
	if len(log) == 0 || len(roots) == 0 {
		return nil, nil, nil, fmt.Errorf("capture serving run recorded %d hook records, %d admissions", len(log), len(roots))
	}
	return log, roots, col, nil
}

// logTo returns a hook that appends each record to log as a replay func:
// replaying calls the same hook of another bus, if one is attached.
func logTo[R any](log *[]func(*core.Bus), hook func(*core.Bus) func(R)) func(R) {
	return func(r R) {
		*log = append(*log, func(b *core.Bus) {
			if h := hook(b); h != nil {
				h(r)
			}
		})
	}
}
