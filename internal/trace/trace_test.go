package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// runTraced executes a small pipeline and returns its processing records.
func runTraced(t *testing.T) ([]core.ProcRecord, *hw.Cluster, sim.Time) {
	t.Helper()
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}}, nil)
	rt := core.New(c, nil)
	var procs []core.ProcRecord
	rt.Hooks.Process = func(r core.ProcRecord) { procs = append(procs, r) }
	src := rt.AddFilter(core.FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 20 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 100, Cost: func(hw.Kind) sim.Time { return sim.Millisecond }}
		},
	})
	wf := rt.AddFilter(core.FilterSpec{
		Name: "worker", Placement: []int{0}, CPUWorkers: 2,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, wf, policy.ODDS())
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return procs, c, res.Makespan
}

func TestWriteProcsCSV(t *testing.T) {
	procs, _, _ := runTraced(t)
	var buf bytes.Buffer
	if err := WriteProcsCSV(&buf, procs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("rows = %d, want header + 20", len(rows))
	}
	if rows[0][0] != "task_id" || rows[1][3] != "CPU" {
		t.Fatalf("unexpected CSV content: %v", rows[:2])
	}
}

func TestGanttShape(t *testing.T) {
	_, c, makespan := runTraced(t)
	out := Gantt(c.Devices(), makespan, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows = %d, want 2 devices:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, "|") || len(l) < 40 {
			t.Fatalf("malformed row %q", l)
		}
	}
	// Two workers splitting 20 x 1ms of work: both rows mostly busy.
	if strings.Count(out, "#") < 40 {
		t.Fatalf("expected mostly-busy chart:\n%s", out)
	}
}

func TestGanttDegenerate(t *testing.T) {
	if Gantt(nil, 0, 10) != "" {
		t.Fatal("degenerate gantt should be empty")
	}
}

func TestGanttPartialCells(t *testing.T) {
	k := sim.NewKernel(1)
	d := hw.NewDevice(k, hw.CPU, 0)
	k.Spawn("u", func(e *sim.Env) {
		e.Sleep(0.9) // idle most of cell 0
		d.Run(e, 0.2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out := Gantt([]*hw.Device{d}, 2, 2) // cells of 1s: busy 0.1s and 0.1s
	if !strings.Contains(out, "+") {
		t.Fatalf("expected partial-busy '+' cells:\n%s", out)
	}
}
