package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// uniformTimes builds n arrival instants spaced gap apart, starting at 0.
func uniformTimes(n int, gap sim.Time) []sim.Time {
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(i) * gap
	}
	return times
}

// TestManualClockDilationPacing proves the serve loop replays an arrival
// trace at the dilated schedule exactly: every spacing is a binary
// fraction, so wall/dilation arithmetic is exact and each tick must admit
// precisely the arrivals whose instants have been reached — no drift, no
// off-by-one.
func TestManualClockDilationPacing(t *testing.T) {
	const (
		n        = 50
		dilation = 16.0
	)
	gap := sim.Time(1) / 1024   // virtual seconds between arrivals
	tick := sim.Time(16) / 1024 // wall seconds per loop turn: tick/dilation = gap
	e, err := New(Config{Seed: 1, Policies: []string{"odds"}, Times: uniformTimes(n, gap)})
	if err != nil {
		t.Fatal(err)
	}
	clk := &sim.ManualClock{}
	frame := 0
	err = e.Pace(clk, dilation, tick, func(f Frame) bool {
		wantV := float64(frame) * float64(gap)
		if f.VirtualS != wantV && !f.Done {
			t.Fatalf("frame %d: virtual %v, want exactly %v", frame, f.VirtualS, wantV)
		}
		wantOffered := frame + 1
		if wantOffered > n {
			wantOffered = n
		}
		if got := f.Pipes[0].Offered; got != wantOffered {
			t.Fatalf("frame %d (virtual %v): offered %d, want %d", frame, f.VirtualS, got, wantOffered)
		}
		frame++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if frame <= n {
		t.Fatalf("loop ended after %d frames, before the %d-arrival schedule drained", frame, n)
	}
	done, err := e.Done()
	if !done || err != nil {
		t.Fatalf("engine not cleanly drained: done=%v err=%v", done, err)
	}
	f := e.Frame()
	p := f.Pipes[0]
	if p.Offered != n || p.Accepted+p.Shed != n || p.Served != p.Accepted {
		t.Fatalf("conservation broken: %+v", p)
	}
}

// overloadTimes offers 1.5x one pipeline's capacity for the given span.
func overloadTimes(span sim.Time) []sim.Time {
	rate := 1.5 * Capacity
	gap := sim.Time(1.0 / rate)
	return uniformTimes(int(float64(span)*rate), gap)
}

// TestMetricsByteDeterministic replays the same configuration twice on a
// fixed ManualClock schedule and requires the full /metrics payload to be
// byte-identical, both mid-run and after drain, and equal to the checked-in
// goldens together with the drained frame and event ring.
func TestMetricsByteDeterministic(t *testing.T) {
	build := func() *Engine {
		e, err := New(Config{Seed: 7, Times: overloadTimes(50 * sim.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	capture := func(e *Engine, v sim.Time) string {
		if _, err := e.Advance(v); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.WritePromText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	var all strings.Builder
	for _, v := range []sim.Time{10 * sim.Millisecond, 30 * sim.Millisecond, sim.Second} {
		pa, pb := capture(a, v), capture(b, v)
		if pa != pb {
			t.Fatalf("/metrics diverged at virtual %v:\n--- a ---\n%s\n--- b ---\n%s", v, pa, pb)
		}
		if len(pa) == 0 {
			t.Fatalf("empty /metrics at virtual %v", v)
		}
		fmt.Fprintf(&all, "# scrape at virtual %v s\n%s", float64(v), pa)
	}
	if done, _ := a.Done(); !done {
		t.Fatal("engine did not drain by 1 virtual second")
	}
	frame, err := json.MarshalIndent(a.Frame(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_golden.prom", []byte(all.String()))
	checkGolden(t, "frame_golden.json", append(frame, '\n'))
	var events bytes.Buffer
	if err := a.EventsJSONL(&events); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "events_golden.jsonl", events.Bytes())
}

// checkGolden pins got byte-for-byte against testdata/name, so the
// engine's /metrics scrapes (mid-run and drained), its final frame and its
// event ring stay fixed across refactors, not just across two engines built
// by the same code. Regenerate deliberately with
// ANTHILL_REGEN_GOLDEN=1 go test ./internal/serve -run TestMetricsByteDeterministic.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	simtest.Golden(t, filepath.Join("testdata", name), got)
}

// TestOverloadViolationsAndLineage drives one pipeline into overload and
// checks the live attribution path: sheds and SLO violations happen, the
// worst violator carries a stage breakdown plus a span lineage, and the
// event ring serves valid JSONL containing both event types.
func TestOverloadViolationsAndLineage(t *testing.T) {
	e, err := New(Config{Seed: 3, Times: overloadTimes(100 * sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	f := e.Frame()
	if !f.Done {
		t.Fatal("frame not done after full drain")
	}
	for _, p := range f.Pipes {
		if p.Shed == 0 {
			t.Errorf("%s: no sheds at 1.5x load", p.Policy)
		}
		if p.Violations == 0 {
			t.Errorf("%s: no SLO violations at 1.5x load", p.Policy)
			continue
		}
		if p.Worst == nil {
			t.Errorf("%s: violations but no worst-violator info", p.Policy)
			continue
		}
		if !strings.Contains(p.Worst.Breakdown, "gateway") {
			t.Errorf("%s: breakdown missing stage split: %q", p.Policy, p.Worst.Breakdown)
		}
		if p.Worst.Lineage == "" {
			t.Errorf("%s: worst violator has no span lineage", p.Policy)
		}
	}

	var buf bytes.Buffer
	if err := e.EventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		seen[ev.Type]++
	}
	if seen["shed"] == 0 || seen["slo_violation"] == 0 {
		t.Fatalf("event ring missing types: %v", seen)
	}
}

// TestEventRingBounded checks the ring overwrites oldest entries at the cap.
func TestEventRingBounded(t *testing.T) {
	e, err := New(Config{Seed: 3, EventCap: 8, Times: overloadTimes(100 * sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.EventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 8 {
		t.Fatalf("ring served %d events, want exactly the cap 8", lines)
	}
	// Oldest-first ordering: timestamps non-decreasing.
	var last float64 = -1
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.At < last {
			t.Fatalf("ring out of order: %g after %g", ev.At, last)
		}
		last = ev.At
	}
}

// TestDisableSink checks the hook-free benchmarking mode: the simulation
// drains identically (arrival stats still flow), no per-request state is
// recorded, and the read endpoints stay functional instead of panicking.
func TestDisableSink(t *testing.T) {
	e, err := New(Config{Seed: 7, DisableSink: true, Times: overloadTimes(50 * sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.Advance(10 * sim.Second)
	if !done || err != nil {
		t.Fatalf("sink-free engine did not drain: done=%v err=%v", done, err)
	}
	f := e.Frame()
	for _, p := range f.Pipes {
		if p.Offered == 0 || p.Accepted == 0 {
			t.Errorf("%s: arrival stats missing with sink off: %+v", p.Policy, p)
		}
		if p.Served != 0 || p.Violations != 0 || p.WindowCount != 0 {
			t.Errorf("%s: hook-fed state recorded with sink off: %+v", p.Policy, p)
		}
	}
	var buf bytes.Buffer
	if err := e.WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "anthill_serve_virtual_seconds") {
		t.Fatal("sink-free /metrics missing the serve families")
	}
	if err := e.EventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownPolicyRejected checks config validation.
func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New(Config{Policies: []string{"lifo"}, Times: uniformTimes(1, 0)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty schedule accepted")
	}
}

// TestSinkExactlyOnce feeds a sink hook records directly: a request served
// without an admission and a request served twice are both reported as
// errors, and only the first service of an admitted request counts.
func TestSinkExactlyOnce(t *testing.T) {
	newSink := func() (*Sink, *core.Runtime) {
		rt := &core.Runtime{}
		s := NewSink("", DefaultSLO, 4)
		s.Attach(rt)
		return s, rt
	}

	s, rt := newSink()
	rt.Hooks.Process(core.ProcRecord{Filter: "serve", TaskID: 9, Start: 0.001, End: 0.002})
	if s.Err == nil || !strings.Contains(s.Err.Error(), "task 9 processed without an admit record") {
		t.Errorf("service without admission: err = %v", s.Err)
	}
	if s.Served != 0 {
		t.Errorf("service without admission counted: served = %d", s.Served)
	}

	s, rt = newSink()
	rt.Hooks.Admit(core.AdmitRecord{Filter: "gateway", TaskID: 3, At: 0, Accepted: true})
	rt.Hooks.Process(core.ProcRecord{Filter: "serve", TaskID: 3, Start: 0.001, End: 0.002})
	if s.Err != nil || s.Served != 1 {
		t.Fatalf("first service: served %d, err %v", s.Served, s.Err)
	}
	rt.Hooks.Process(core.ProcRecord{Filter: "serve", TaskID: 3, Start: 0.003, End: 0.004})
	if s.Err == nil || !strings.Contains(s.Err.Error(), "task 3 processed twice") {
		t.Errorf("duplicate service: err = %v", s.Err)
	}
	if s.Served != 1 {
		t.Errorf("duplicate service counted: served = %d", s.Served)
	}

	// Records of another pipeline's filters are not this sink's.
	s, rt = newSink()
	rt.Hooks.Process(core.ProcRecord{Filter: "serve-odds", TaskID: 9, End: 0.002})
	if s.Err != nil {
		t.Errorf("foreign filter audited: %v", s.Err)
	}
}
