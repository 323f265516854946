package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/task"
)

// fetchRoundPipeline runs a two-filter demand-driven pipeline over the
// given buffers — a lazy source on one node, a CPU consumer on the other —
// and returns the number of demand rounds its requesters issued.
func fetchRoundPipeline(tasks []*task.Task) int {
	k := sim.NewKernel(1)
	rt := core.New(hw.NewCluster(k, []hw.NodeSpec{hw.CPUOnlyNode(), hw.CPUOnlyNode()}, nil), nil)
	src := rt.AddFilter(core.FilterSpec{
		Name: "src", Placement: []int{0},
		SourceCount: func(int) int { return len(tasks) },
		SourceMake:  func(_, i int) *task.Task { return tasks[i] },
	})
	dst := rt.AddFilter(core.FilterSpec{
		Name: "work", Placement: []int{1}, CPUWorkers: -1,
		Handler: func(*core.Ctx, *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, dst, policy.DDFCFS(4))
	rounds := 0
	rt.Hooks.Demand = func(r core.DemandRecord) {
		if r.Event == core.DemandIssued {
			rounds++
		}
	}
	if _, err := rt.Run(); err != nil {
		panic(err)
	}
	return rounds
}

// fetchRoundTasks builds n buffers that are cheap to process, so the run is
// dominated by the demand protocol.
func fetchRoundTasks(n int) []*task.Task {
	tasks := make([]*task.Task, n)
	for i := range tasks {
		tasks[i] = &task.Task{Size: 64 << 10, OutSize: 64,
			Cost: func(hw.Kind) sim.Time { return 10 * sim.Microsecond }}
	}
	return tasks
}

// TestFetchRoundAllocs pins the stackless demand round: pooled fetch
// records carry the request, the reply channel and every step of the
// round, so one more round — demand send, request hand-off, reply wait,
// settle and the reply transmission, plus processing the fetched buffer —
// allocates nothing beyond amortized queue and map growth. The marginal
// cost is measured as the difference between two pipeline sizes, which
// cancels the runtime's set-up. The ceiling of a quarter allocation per
// round fails on any per-round or per-buffer allocation.
func TestFetchRoundAllocs(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("allocation thresholds are not meaningful under -race")
	}
	measure := func(n int) (allocs float64, rounds int) {
		allocs = testing.AllocsPerRun(3, func() {
			rounds = fetchRoundPipeline(fetchRoundTasks(n))
		})
		return allocs - float64(n+1), rounds // minus the buffers themselves
	}
	smallAllocs, smallRounds := measure(200)
	bigAllocs, bigRounds := measure(2200)
	if bigRounds <= smallRounds {
		t.Fatalf("degenerate pipeline: %d rounds at 200 buffers, %d at 2200", smallRounds, bigRounds)
	}
	perRound := (bigAllocs - smallAllocs) / float64(bigRounds-smallRounds)
	t.Logf("%.3f allocs per demand round (%d rounds at 2200 buffers)", perRound, bigRounds)
	if perRound > 0.25 {
		t.Errorf("%.3f allocs per demand round, want <= 0.25", perRound)
	}
}

// resubmitPipeline runs a lazy source feeding a CPU stage that resubmits
// every buffer born at the source once, and returns the number of
// resubmissions. All 2n buffers and every Resubmit slice come from two
// up-front allocations, so the pipeline's marginal allocations are the
// runtime's own.
func resubmitPipeline(n int) int {
	bufs := make([]task.Task, 2*n)
	ptrs := make([]*task.Task, 2*n)
	for i := range bufs {
		bufs[i] = task.Task{Size: 4 << 10, OutSize: 64,
			Cost: func(hw.Kind) sim.Time { return 10 * sim.Microsecond }}
		ptrs[i] = &bufs[i]
	}
	k := sim.NewKernel(1)
	rt := core.New(hw.NewCluster(k, []hw.NodeSpec{hw.CPUOnlyNode(), hw.CPUOnlyNode()}, nil), nil)
	src := rt.AddFilter(core.FilterSpec{
		Name: "src", Placement: []int{0},
		SourceCount: func(int) int { return n },
		SourceMake:  func(_, i int) *task.Task { return ptrs[i] },
	})
	resubs := 0
	dst := rt.AddFilter(core.FilterSpec{
		Name: "work", Placement: []int{1}, CPUWorkers: -1,
		Handler: func(_ *core.Ctx, tk *task.Task) core.Action {
			if tk.Parent != 0 {
				return core.Action{}
			}
			r := ptrs[n+resubs : n+resubs+1]
			resubs++
			return core.Action{Resubmit: r}
		},
	})
	rt.Connect(src, dst, policy.DDFCFS(4))
	if _, err := rt.Run(); err != nil {
		panic(err)
	}
	return resubs
}

// TestResubmitAllocs pins resubmission: each one runs on a pooled record
// whose steps — the control message to the root source, then the push into
// its send queue — are bound once, so one more resubmission, including the
// demand round and processing of the resubmitted buffer, allocates nothing
// beyond amortized queue and map growth. The ceiling of a quarter
// allocation per resubmission fails on a closure per resubmission.
func TestResubmitAllocs(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("allocation thresholds are not meaningful under -race")
	}
	measure := func(n int) (allocs float64, resubs int) {
		allocs = testing.AllocsPerRun(3, func() { resubs = resubmitPipeline(n) })
		return allocs, resubs
	}
	smallAllocs, smallResubs := measure(200)
	bigAllocs, bigResubs := measure(2200)
	if bigResubs != 2200 || smallResubs != 200 {
		t.Fatalf("resubmitted %d of 200 and %d of 2200 buffers, want all", smallResubs, bigResubs)
	}
	perResub := (bigAllocs - smallAllocs) / float64(bigResubs-smallResubs)
	t.Logf("%.3f allocs per resubmission", perResub)
	if perResub > 0.25 {
		t.Errorf("%.3f allocs per resubmission, want <= 0.25", perResub)
	}
}
