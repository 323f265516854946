package core_test

// Hook-stream goldens for the message path. Each pipeline's Result, record
// count and the sha256 of its full hook-bus record stream are checked in
// under testdata/. They were recorded from the blocking-coroutine reference
// flavour of the per-message processes, which the runtime kept beside the
// stackless step chains until both reproduced the same digests; the step
// path must still reproduce them, record for record, in order. The
// pipelines are chosen to cross every per-message process: lazy
// multi-instance source (sender serve loop, reply transmission, fetch), a
// forwarding+resubmitting middle stage (resubmission), a GPU sink in
// asynchronous copy mode (h2d/d2h steps), remote and local network hops,
// DQAA-driven demand, and a mid-run crash (dead-producer skips, reclaim
// paths). An intended change to the message path's event order is
// regenerated with
// ANTHILL_REGEN_GOLDEN=1 go test ./internal/core -run TestHookStreamGolden.

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/task"
)

// runCrashPipeline executes the representative pipeline and returns the run
// result plus the full hook trace. attach, when not nil, subscribes to the
// bus before the recorder does.
func runCrashPipeline(t *testing.T, serialRequester bool, attach func(*core.Runtime)) (core.Result, *simtest.Recorder) {
	t.Helper()
	k := sim.NewKernel(1)
	c := simtest.TwoNodeCluster(k)
	rt := core.New(c, nil)
	rt.Tun = core.Tunables{SerialRequester: serialRequester}
	if attach != nil {
		attach(rt)
	}
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

// TestHookStreamGoldenPipelined pins the pipelined requesters (the
// default protocol).
func TestHookStreamGoldenPipelined(t *testing.T) {
	res, trace := runCrashPipeline(t, false, nil)
	checkCrashRun(t, res, trace)
	checkDigest(t, "hookstream_pipelined.golden", res, trace)
}

// TestHookStreamGoldenSerialRequester pins the SerialRequester ablation,
// where the fetch chains on the requester process itself instead of a
// spawned helper.
func TestHookStreamGoldenSerialRequester(t *testing.T) {
	res, trace := runCrashPipeline(t, true, nil)
	checkCrashRun(t, res, trace)
	checkDigest(t, "hookstream_serial.golden", res, trace)
}

// TestRecordBehindRegistry attaches the recorder after a metrics registry:
// both must see the run, and the recorder the same lines as when alone.
func TestRecordBehindRegistry(t *testing.T) {
	_, alone := runCrashPipeline(t, false, nil)
	reg := obs.NewRegistry()
	_, shared := runCrashPipeline(t, false, reg.Attach)
	simtest.DiffTraces(t, "alone", alone.Lines(), "behind registry", shared.Lines())
	if got, want := reg.Counter("faults{kind=crash,phase=crash}").N, int64(shared.Count("fault")); got != want || got == 0 {
		t.Fatalf("registry counted %d crash faults, recorder %d", got, want)
	}
}

// runLabeledPipeline executes a labeled-stream pipeline under a rival
// scheduler. Requests carry their consumer's identity all the way to the
// sender's buffer selection: the instance index picks the label partition
// and the device class ranks the partition's buffers (HYBRID serves a
// device's own side of the speedup split first). A demand round that
// carried a stale class, instance or reply channel would pop a different
// buffer or deliver to the wrong worker, and the hook stream would diverge
// from its golden. The golden came from the blocking reference, which
// built a fresh record per round, so it also checks the pooled records
// against unpooled ones.
func runLabeledPipeline(t *testing.T) (core.Result, *simtest.Recorder) {
	t.Helper()
	k := sim.NewKernel(3)
	c := simtest.TwoNodeCluster(k)
	rt := core.New(c, nil)
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

// TestHookStreamGoldenLabeledRival pins a labeled stream under a rival
// scheduler, where the requester's identity steers the sender's buffer
// selection.
func TestHookStreamGoldenLabeledRival(t *testing.T) {
	res, trace := runLabeledPipeline(t)
	if res.Completed != 100 {
		t.Fatalf("completed %d lineages, want 100", res.Completed)
	}
	if trace.Count("span") == 0 {
		t.Error("trace has no GPU pipeline spans: the async executor was not exercised")
	}
	checkDigest(t, "hookstream_labeled.golden", res, trace)
}

// checkDigest pins a run against testdata/name: its Result, its record
// count and the sha256 of its hook stream, one rendered record per line.
func checkDigest(t *testing.T, name string, res core.Result, rec *simtest.Recorder) {
	t.Helper()
	lines := rec.Lines()
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	got := fmt.Sprintf("result %+v\nrecords %d\nsha256 %x\n", res, len(lines), sum)
	simtest.Golden(t, filepath.Join("testdata", name), []byte(got))
}

// checkCrashRun asserts the crash pipeline exercised what its golden is
// meant to cover: the run completed, the crash landed mid-run, and the
// async GPU pipeline ran.
func checkCrashRun(t *testing.T, res core.Result, trace *simtest.Recorder) {
	t.Helper()
	if res.Completed == 0 || res.Makespan == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if trace.Count("fault") == 0 {
		t.Error("trace has no fault record: the crash did not land mid-run")
	}
	if trace.Count("span") == 0 {
		t.Error("trace has no GPU pipeline spans: the async executor was not exercised")
	}
}
