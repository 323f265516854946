package core_test

// Differential tests for the stackless message-path migration. The runtime
// keeps both flavours of every per-message helper process — the blocking
// coroutines the code started with (Tunables.BlockingHelpers) and the
// stackless step chains that replaced them on the default path — and the
// two must be observationally indistinguishable: same Result, and the same
// hook-bus record stream, record for record, in order. The pipeline here is
// chosen to cross every migrated proc: lazy multi-instance source (sender
// serve loop, reply transmission, fetch), a forwarding+resubmitting middle
// stage (resubmit proc), a GPU sink in asynchronous copy mode (h2d/d2h
// steps), remote and local network hops, DQAA-driven demand, and a
// mid-run crash (dead-producer skips, reclaim paths).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/task"
)

// runDiffPipeline executes the representative pipeline with the chosen
// helper flavour and returns the run result plus the full hook trace.
func runDiffPipeline(t *testing.T, blocking, serialRequester bool) (core.Result, *simtest.Recorder) {
	t.Helper()
	k := sim.NewKernel(1)
	c := simtest.TwoNodeCluster(k)
	rt := core.New(c, nil)
	rt.Tun = core.Tunables{BlockingHelpers: blocking, SerialRequester: serialRequester}
	rec := simtest.Record(rt)

	src := rt.AddFilter(core.FilterSpec{
		Name:        "reader",
		Placement:   []int{0, 1},
		SourceCount: func(int) int { return 60 },
		SourceMake: func(inst, i int) *task.Task {
			return &task.Task{
				Size: 40 << 10, OutSize: 4 << 10,
				Cost: func(kw hw.Kind) sim.Time {
					if kw == hw.GPU {
						return 300 * sim.Microsecond
					}
					return sim.Millisecond
				},
				Payload: 0,
			}
		},
	})
	mid := rt.AddFilter(core.FilterSpec{
		Name: "normalize", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action {
			act := core.Action{Forward: []*task.Task{{
				Size: 24 << 10, OutSize: 2 << 10,
				Cost: func(kw hw.Kind) sim.Time {
					if kw == hw.GPU {
						return 200 * sim.Microsecond
					}
					return 800 * sim.Microsecond
				},
				Payload: tk.Payload,
			}}}
			// First-generation work occasionally recalculates: the
			// resubmission re-enters at the root source filter.
			if gen := tk.Payload.(int); gen == 0 && tk.ID%7 == 0 {
				act.Resubmit = []*task.Task{{
					Size: 40 << 10, OutSize: 4 << 10,
					Cost:    func(hw.Kind) sim.Time { return 500 * sim.Microsecond },
					Payload: 1,
				}}
			}
			return act
		},
	})
	sink := rt.AddFilter(core.FilterSpec{
		Name: "classify", Placement: []int{1},
		UseGPU: true, GPUWorkers: 1, CPUWorkers: 0,
		AsyncCopy: true, MaxConcurrentCopies: 4,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, mid, policy.ODDS())
	rt.Connect(mid, sink, policy.DDWRR(4))

	// Fail-stop one middle instance mid-run via the scripted fault layer.
	simtest.Apply(t, rt, "crash:filter=normalize,inst=1,at=8ms")

	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestStepHelpersMatchBlockingHelpers is the core differential gate of the
// migration: pipelined requesters (the default protocol).
func TestStepHelpersMatchBlockingHelpers(t *testing.T) {
	resBlock, traceBlock := runDiffPipeline(t, true, false)
	resStep, traceStep := runDiffPipeline(t, false, false)
	compareDiffRuns(t, resBlock, traceBlock, resStep, traceStep)
}

// TestStepHelpersMatchBlockingSerialRequester repeats the differential gate
// under the SerialRequester ablation, where the fetch chains on the
// requester process itself instead of a spawned helper.
func TestStepHelpersMatchBlockingSerialRequester(t *testing.T) {
	resBlock, traceBlock := runDiffPipeline(t, true, true)
	resStep, traceStep := runDiffPipeline(t, false, true)
	compareDiffRuns(t, resBlock, traceBlock, resStep, traceStep)
}

// runLabeledDiffPipeline executes a labeled-stream pipeline under a rival
// scheduler with the chosen helper flavour. Requests carry their consumer's
// identity all the way to the sender's buffer selection: the instance
// index picks the label partition and the device class ranks the
// partition's buffers (HYBRID serves a device's own side of the speedup
// split first). A demand round that carried a stale class, instance or
// reply channel would pop a different buffer or deliver to the wrong
// worker, and the hook streams would diverge.
func runLabeledDiffPipeline(t *testing.T, blocking bool) (core.Result, *simtest.Recorder) {
	t.Helper()
	k := sim.NewKernel(3)
	c := simtest.TwoNodeCluster(k)
	rt := core.New(c, nil)
	rt.Tun = core.Tunables{BlockingHelpers: blocking}
	rec := simtest.Record(rt)

	src := rt.AddFilter(core.FilterSpec{
		Name:        "reader",
		Placement:   []int{0, 1},
		SourceCount: func(int) int { return 50 },
		SourceMake: func(inst, i int) *task.Task {
			speedup := 0.5 + float64((i*7+inst*3)%10)/2 // 0.5x .. 5x on the GPU
			return &task.Task{
				Size: 32 << 10, OutSize: 4 << 10,
				Weight: [hw.NumKinds]float64{hw.CPU: 1, hw.GPU: speedup},
				Cost: func(kw hw.Kind) sim.Time {
					if kw == hw.GPU {
						return sim.Time(float64(sim.Millisecond) / speedup)
					}
					return sim.Millisecond
				},
				Payload: i,
			}
		},
	})
	sink := rt.AddFilter(core.FilterSpec{
		Name: "aggregate", Placement: []int{0, 1},
		UseGPU: true, GPUWorkers: 1, CPUWorkers: 1,
		AsyncCopy: true, MaxConcurrentCopies: 3,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.ConnectLabeled(src, sink, rivalPolicy(t, "HYBRID"), func(tk *task.Task) uint64 {
		return uint64(tk.Payload.(int) % 3)
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// rivalPolicy looks a stream policy up in the policy registry by name.
func rivalPolicy(t *testing.T, name string) policy.StreamPolicy {
	t.Helper()
	for _, c := range policy.Constructors() {
		if c.Name == name {
			return c.New()
		}
	}
	t.Fatalf("policy %q is not registered", name)
	return policy.StreamPolicy{}
}

// TestStepHelpersMatchBlockingLabeledRival repeats the differential gate on
// a labeled stream under a rival scheduler, where the requester's identity
// steers the sender's buffer selection.
func TestStepHelpersMatchBlockingLabeledRival(t *testing.T) {
	resBlock, traceBlock := runLabeledDiffPipeline(t, true)
	resStep, traceStep := runLabeledDiffPipeline(t, false)
	if resStep != resBlock {
		t.Errorf("results differ:\n  blocking: %+v\n  step:     %+v", resBlock, resStep)
	}
	if resStep.Completed != 100 {
		t.Fatalf("completed %d lineages, want 100", resStep.Completed)
	}
	if traceStep.Count("span") == 0 {
		t.Error("trace has no GPU pipeline spans: the async executor was not exercised")
	}
	simtest.DiffTraces(t, "blocking", traceBlock.Lines(), "step", traceStep.Lines())
}

func compareDiffRuns(t *testing.T, resBlock core.Result, traceBlock *simtest.Recorder, resStep core.Result, traceStep *simtest.Recorder) {
	t.Helper()
	if resBlock != resStep {
		t.Errorf("results differ:\n  blocking: %+v\n  step:     %+v", resBlock, resStep)
	}
	if resStep.Completed == 0 || resStep.Makespan == 0 {
		t.Fatalf("degenerate run: %+v", resStep)
	}
	if traceStep.Count("fault") == 0 {
		t.Error("trace has no fault record: the crash did not land mid-run")
	}
	if traceStep.Count("span") == 0 {
		t.Error("trace has no GPU pipeline spans: the async executor was not exercised")
	}
	simtest.DiffTraces(t, "blocking", traceBlock.Lines(), "step", traceStep.Lines())
}
