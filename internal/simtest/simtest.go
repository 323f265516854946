// Package simtest is shared test infrastructure for simulation-level tests:
// a recording hook-bus sink with trace assertion helpers, standard cluster
// scenario builders, a fault-schedule composition helper, and a golden-file
// check. Differential
// and chaos tests across internal/core, internal/hw, and
// internal/experiments all need the same three moves — subscribe every
// hook, render records into a stable line form, and compare two runs record
// for record — so they live here once.
//
// The package imports core and fault, so tests using it must be external
// test packages (package foo_test); that is also what keeps simtest out of
// production binaries.
package simtest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Recorder captures every hook-bus record of a runtime as one rendered line
// per record, preserving the global emission order. The line format is
// "<kind> <record %+v>" with kinds process, target, depth, demand, send,
// emit, deliver, fault, admit, and span — stable across runs, so two
// equivalent executions produce byte-identical traces.
type Recorder struct {
	lines []string
}

// Record taps a fresh Recorder onto every hook of rt (core.Tap), keeping
// any subscriber already attached. Call it before Run.
func Record(rt *core.Runtime) *Recorder {
	r := &Recorder{}
	add := func(kind string, rec any) {
		r.lines = append(r.lines, fmt.Sprintf("%s %+v", kind, rec))
	}
	h := &rt.Hooks
	core.Tap(&h.Process, func(rec core.ProcRecord) { add("process", rec) })
	core.Tap(&h.Target, func(rec core.TargetRecord) { add("target", rec) })
	core.Tap(&h.QueueDepth, func(rec core.QueueDepthRecord) { add("depth", rec) })
	core.Tap(&h.Demand, func(rec core.DemandRecord) { add("demand", rec) })
	core.Tap(&h.Send, func(rec core.SendRecord) { add("send", rec) })
	core.Tap(&h.Emit, func(rec core.EmitRecord) { add("emit", rec) })
	core.Tap(&h.Deliver, func(rec core.DeliverRecord) { add("deliver", rec) })
	core.Tap(&h.Fault, func(rec core.FaultRecord) { add("fault", rec) })
	core.Tap(&h.Admit, func(rec core.AdmitRecord) { add("admit", rec) })
	core.Tap(&h.Span, func(rec core.SpanRecord) { add("span", rec) })
	return r
}

// Lines returns the recorded trace so far, in emission order.
func (r *Recorder) Lines() []string { return r.lines }

// Count returns how many recorded lines have the given kind prefix
// ("fault", "span", ...).
func (r *Recorder) Count(kind string) int {
	n := 0
	for _, l := range r.lines {
		if strings.HasPrefix(l, kind+" ") {
			n++
		}
	}
	return n
}

// ExpectTrace asserts that the wanted substrings appear in the recorded
// trace in order (as a subsequence: other records may interleave). On
// failure it reports the first want that never matched.
func (r *Recorder) ExpectTrace(t testing.TB, wants ...string) {
	t.Helper()
	i := 0
	for _, want := range wants {
		found := false
		for ; i < len(r.lines); i++ {
			if strings.Contains(r.lines[i], want) {
				i++
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trace does not contain %q (in order) among its %d records", want, len(r.lines))
		}
	}
}

// DiffTraces asserts two record streams are identical, record for record.
// The labels name the runs in failure messages ("blocking", "step", ...).
func DiffTraces(t testing.TB, labelA string, a []string, labelB string, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %s %d records, %s %d records", labelA, len(a), labelB, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at record %d:\n  %s: %s\n  %s: %s", i, labelA, a[i], labelB, b[i])
		}
	}
}

// SameTimes asserts two completion-time vectors agree element for element —
// the comparison every hardware-model equivalence test makes between a
// blocking reference run and a continuation-flavoured run.
func SameTimes(t testing.TB, label string, got, ref []sim.Time) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d completion times, reference has %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("%s: process %d finished at %v, reference %v", label, i, got[i], ref[i])
		}
	}
}

// TwoNodeCluster is the standard heterogeneous scenario: one CPU-only node
// and one GPU node, two cores each, default network.
func TwoNodeCluster(k *sim.Kernel) *hw.Cluster {
	return hw.NewCluster(k, []hw.NodeSpec{
		{CPUCores: 2},
		{CPUCores: 2, HasGPU: true},
	}, nil)
}

// ContendedPair is the standard two-node network-contention scenario used
// by the hardware equivalence tests: CPU-only nodes joined by a 100 Mbit/s,
// 100 microsecond link.
func ContendedPair(k *sim.Kernel) *hw.Cluster {
	return hw.NewCluster(k, []hw.NodeSpec{hw.CPUOnlyNode(), hw.CPUOnlyNode()},
		&hw.NetworkConfig{BandwidthBps: 1e8, Latency: 100 * sim.Microsecond})
}

// Compose parses each fault spec and concatenates the schedules in argument
// order — the chaos-composition helper for layering scripted faults (a
// crash here, a slowdown there) into one Apply-able schedule.
func Compose(t testing.TB, specs ...string) *fault.Schedule {
	t.Helper()
	out := &fault.Schedule{}
	for _, spec := range specs {
		s, err := fault.Parse(spec)
		if err != nil {
			t.Fatalf("simtest: fault spec %q: %v", spec, err)
		}
		out.Events = append(out.Events, s.Events...)
	}
	return out
}

// Apply composes the given fault specs and applies them to rt, failing the
// test on error. Call between Connect and Run.
func Apply(t testing.TB, rt *core.Runtime, specs ...string) {
	t.Helper()
	if err := fault.Apply(rt, Compose(t, specs...)); err != nil {
		t.Fatalf("simtest: apply faults: %v", err)
	}
}

// Golden pins got byte-for-byte against the checked-in file at path, or,
// with ANTHILL_REGEN_GOLDEN=1 set, rewrites the file (and its directory).
func Golden(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv("ANTHILL_REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with ANTHILL_REGEN_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden (regenerate with ANTHILL_REGEN_GOLDEN=1 if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
