package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// runChrome executes a small GPU pipeline with a ChromeLog attached and
// returns the rendered trace bytes.
func runChrome(t *testing.T) []byte {
	t.Helper()
	k := sim.NewKernel(42)
	// Source and worker on different nodes: network transit gives data
	// requests a real latency, so DQAA moves its target off the floor.
	c := hw.NewCluster(k, []hw.NodeSpec{
		{CPUCores: 2},
		{CPUCores: 2, HasGPU: true},
	}, nil)
	rt := core.New(c, nil)
	log := &ChromeLog{}
	log.Attach(rt)
	src := rt.AddFilter(core.FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 200 },
		SourceMake: func(_, i int) *task.Task {
			// Processing is much cheaper than fetching a buffer across the
			// network, so DQAA raises its target off the floor.
			cost := sim.Time(10+i%7) * sim.Microsecond
			return &task.Task{
				Size: 1 << 20, OutSize: 1 << 10,
				Cost: func(hw.Kind) sim.Time { return cost },
			}
		},
	})
	wf := rt.AddFilter(core.FilterSpec{
		Name: "worker", Placement: []int{1}, CPUWorkers: 1,
		UseGPU: true, AsyncCopy: true,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, wf, policy.ODDS())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	log.AddCluster(c)
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChromeTraceStructure(t *testing.T) {
	raw := runChrome(t)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	threads := map[string]bool{}
	phases := map[string]int{}
	counters := map[string]bool{}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		phases[ph]++
		switch ph {
		case "M":
			if e["name"] == "thread_name" {
				args := e["args"].(map[string]any)
				threads[args["name"].(string)] = true
			}
		case "C":
			name, _ := e["name"].(string)
			counters[name[:4]] = true
		case "X":
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("X event without numeric ts: %v", e)
			}
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("X event without numeric dur: %v", e)
			}
		}
	}
	for _, want := range []string{
		"dev n1/GPU0",                                     // device track (busy during kernels)
		"worker/0",                                        // filter-instance track
		"worker/0 h2d", "worker/0 kernel", "worker/0 d2h", // pipeline lanes
		"counters",
	} {
		if !threads[want] {
			t.Errorf("missing thread track %q (have %v)", want, threads)
		}
	}
	// The source node's cores never run a handler: their device tracks
	// must be suppressed, not rendered empty.
	for _, idle := range []string{"dev n0/CPU0", "dev n0/CPU1"} {
		if threads[idle] {
			t.Errorf("idle device %q should not get a track", idle)
		}
	}
	if !counters["dqaa"] {
		t.Error("missing DQAA target counter events")
	}
	if !counters["queu"] {
		t.Error("missing queue-depth counter events")
	}
	if phases["X"] == 0 || phases["C"] == 0 || phases["M"] == 0 {
		t.Fatalf("phase histogram incomplete: %v", phases)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	a := runChrome(t)
	b := runChrome(t)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs produced different trace bytes")
	}
}

// TestChromeFaultInstant checks crash faults render as instant events.
func TestChromeFaultInstant(t *testing.T) {
	log := &ChromeLog{}
	rt := &core.Runtime{}
	log.Attach(rt)
	rt.Hooks.Fault(core.FaultRecord{
		Kind: "crash", Phase: "crash", At: 0.5, Node: 1,
		Filter: "w", Instance: 0, Detail: "crash:filter=w,inst=0",
	})
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range doc.TraceEvents {
		if e["ph"] == "I" && e["name"] == "crash crash" {
			found = true
			if e["pid"].(float64) != 2 {
				t.Fatalf("crash instant on pid %v, want node process 2", e["pid"])
			}
		}
	}
	if !found {
		t.Fatal("no instant event for the crash fault")
	}
}

// TestChromeNoEmptyTracks asserts every thread_name track carries at least
// one event — the regression for devices registered by AddCluster but never
// busy, which used to render as empty Perfetto tracks.
func TestChromeNoEmptyTracks(t *testing.T) {
	raw := runChrome(t)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	type key struct{ pid, tid float64 }
	named := map[key]string{}
	used := map[key]bool{}
	for _, e := range doc.TraceEvents {
		pid, _ := e["pid"].(float64)
		tid, _ := e["tid"].(float64)
		k := key{pid, tid}
		if e["ph"] == "M" {
			if e["name"] == "thread_name" {
				named[k] = e["args"].(map[string]any)["name"].(string)
			}
			continue
		}
		used[k] = true
	}
	for k, name := range named {
		if !used[k] {
			t.Errorf("track %q (pid %v tid %v) has no events", name, k.pid, k.tid)
		}
	}
}

// TestChromeLineageFlows runs a two-stage pipeline and checks that processed
// events are linked by lineage flow arrows: every flow start has a matching
// finish with the same id, and flows only point forward in time.
func TestChromeLineageFlows(t *testing.T) {
	k := sim.NewKernel(7)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}, {CPUCores: 2}, {CPUCores: 2}}, nil)
	rt := core.New(c, nil)
	log := &ChromeLog{}
	log.Attach(rt)
	src := rt.AddFilter(core.FilterSpec{
		Name: "source", Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 50; i++ {
				cost := sim.Time(15+i%5) * sim.Microsecond
				emit(&task.Task{Size: 1 << 16, OutSize: 1 << 10,
					Cost: func(hw.Kind) sim.Time { return cost }})
			}
		},
	})
	mid := rt.AddFilter(core.FilterSpec{
		Name: "mid", Placement: []int{1}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action {
			return core.Action{Forward: []*task.Task{{
				Size: tk.Size, OutSize: tk.OutSize, Cost: tk.Cost,
			}}}
		},
	})
	sink := rt.AddFilter(core.FilterSpec{
		Name: "sink", Placement: []int{2}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, mid, policy.ODDS())
	rt.Connect(mid, sink, policy.ODDS())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	log.AddCluster(c)
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	starts := map[float64]float64{} // flow id -> ts
	finishes := map[float64]float64{}
	for _, e := range doc.TraceEvents {
		if e["cat"] != "lineage" {
			continue
		}
		id, _ := e["id"].(float64)
		ts, _ := e["ts"].(float64)
		switch e["ph"] {
		case "s":
			starts[id] = ts
		case "f":
			finishes[id] = ts
			if e["bp"] != "e" {
				t.Errorf("flow finish without bp=e: %v", e)
			}
		}
	}
	if len(starts) == 0 {
		t.Fatal("no lineage flow events in a two-stage pipeline trace")
	}
	if len(starts) != len(finishes) {
		t.Fatalf("%d flow starts but %d finishes", len(starts), len(finishes))
	}
	for id, ts := range starts {
		fts, ok := finishes[id]
		if !ok {
			t.Errorf("flow %v has no finish", id)
		} else if fts < ts {
			t.Errorf("flow %v goes backward: start %v finish %v", id, ts, fts)
		}
	}
}
