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
