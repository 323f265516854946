package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// ChromeLog records a run's hook stream and renders it in the Chrome
// trace-event JSON format, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. The track model:
//
//   - one trace process per cluster node (pid = node ID + 1, named "nodeN"),
//   - inside it, one thread track per device ("dev n0/CPU0", busy
//     intervals), one per filter instance ("filter/0", processed events),
//     and one per transfer-pipeline lane ("filter/0 h2d|kernel|d2h"),
//   - flow arrows ("lineage") linking each processed event to the parent
//     event whose handler created its buffer, so Perfetto can follow a
//     buffer's causal chain across filters and nodes,
//   - a "metrics" process (pid 0) holding the counter tracks: DQAA request
//     target per worker and queue depth per runtime queue,
//   - fault injections as instant events on their node's "faults" track.
//
// Tracks that would be empty are suppressed: a registered device that was
// never busy (an idle core on a source-only node) gets no thread_name
// metadata, keeping the Perfetto track list to what actually ran.
//
// Events are buffered in hook order (deterministic per seed) and rendered
// with sorted track IDs and sorted JSON keys, so for a fixed seed the
// output is byte-identical across runs.
type ChromeLog struct {
	procs   []core.ProcRecord
	spans   []core.SpanRecord
	targets []core.TargetRecord
	depths  []core.QueueDepthRecord
	faults  []core.FaultRecord
	devs    []*hw.Device
}

// NewChromeLog returns an empty log ready to Attach. The zero value is also
// usable; the constructor exists for symmetry with obs.NewRegistry.
func NewChromeLog() *ChromeLog { return &ChromeLog{} }

// Attach taps the log onto a runtime's hook bus (core.Tap). Call before
// rt.Run.
func (l *ChromeLog) Attach(rt *core.Runtime) {
	core.Tap(&rt.Hooks.Process, func(r core.ProcRecord) {
		l.procs = append(l.procs, r)
	})
	core.Tap(&rt.Hooks.Span, func(r core.SpanRecord) {
		l.spans = append(l.spans, r)
	})
	core.Tap(&rt.Hooks.Target, func(r core.TargetRecord) {
		l.targets = append(l.targets, r)
	})
	core.Tap(&rt.Hooks.QueueDepth, func(r core.QueueDepthRecord) {
		l.depths = append(l.depths, r)
	})
	core.Tap(&rt.Hooks.Fault, func(r core.FaultRecord) {
		l.faults = append(l.faults, r)
	})
}

// AddCluster registers every device of the cluster so its busy intervals
// become device tracks. Call after rt.Run (intervals are complete then).
func (l *ChromeLog) AddCluster(c *hw.Cluster) {
	for _, n := range c.Nodes {
		l.devs = append(l.devs, n.CPUs...)
		if n.GPU != nil {
			l.devs = append(l.devs, n.GPU)
		}
	}
}

// usec converts virtual seconds to trace-event microseconds.
func usec(t sim.Time) float64 { return float64(t) * 1e6 }

// ev is one trace event; rendered as a JSON object with sorted keys.
type ev map[string]any

// WriteJSON renders the log as {"traceEvents": [...]} trace-event JSON.
func (l *ChromeLog) WriteJSON(w io.Writer) error {
	// Pass 1: discover every (pid, thread track) pair so tids can be
	// assigned from sorted names, independent of event arrival order.
	tracks := map[int]map[string]bool{}
	note := func(pid int, track string) {
		if tracks[pid] == nil {
			tracks[pid] = map[string]bool{}
		}
		tracks[pid][track] = true
	}
	// Devices with no busy intervals would render as empty tracks — skip
	// them in both the metadata and the emission pass.
	devs := make([]*hw.Device, 0, len(l.devs))
	for _, d := range l.devs {
		if len(d.Intervals()) == 0 {
			continue
		}
		devs = append(devs, d)
		note(d.NodeID+1, "dev "+d.Name())
	}
	for _, r := range l.procs {
		note(r.NodeID+1, fmt.Sprintf("%s/%d", r.Filter, r.Instance))
	}
	for _, r := range l.spans {
		note(r.NodeID+1, fmt.Sprintf("%s/%d %s", r.Filter, r.Instance, r.Kind))
	}
	for _, r := range l.faults {
		note(faultPid(r), "faults")
	}
	if len(l.targets) > 0 || len(l.depths) > 0 {
		note(0, "counters")
	}
	tid := map[int]map[string]int{}
	pids := make([]int, 0, len(tracks))
	for pid := range tracks {
		pids = append(pids, pid)
	}
	sort.Ints(pids)

	var events []ev
	// Metadata: process and thread names, in sorted order.
	for _, pid := range pids {
		pname := "metrics"
		if pid > 0 {
			pname = fmt.Sprintf("node%d", pid-1)
		}
		events = append(events, ev{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": ev{"name": pname},
		})
		names := make([]string, 0, len(tracks[pid]))
		for t := range tracks[pid] {
			names = append(names, t)
		}
		sort.Strings(names)
		tid[pid] = map[string]int{}
		for i, t := range names {
			tid[pid][t] = i + 1
			events = append(events, ev{
				"name": "thread_name", "ph": "M", "pid": pid, "tid": i + 1,
				"args": ev{"name": t},
			})
			events = append(events, ev{
				"name": "thread_sort_index", "ph": "M", "pid": pid, "tid": i + 1,
				"args": ev{"sort_index": i + 1},
			})
		}
	}
	// Device busy intervals, sorted by device name for stable output.
	sort.Slice(devs, func(i, j int) bool { return devs[i].Name() < devs[j].Name() })
	for _, d := range devs {
		pid := d.NodeID + 1
		t := tid[pid]["dev "+d.Name()]
		for _, iv := range d.Intervals() {
			events = append(events, ev{
				"name": "busy", "ph": "X", "pid": pid, "tid": t,
				"ts": usec(iv.Start), "dur": usec(iv.End - iv.Start),
			})
		}
	}
	// Processed events, one complete event per handler invocation.
	for _, r := range l.procs {
		pid := r.NodeID + 1
		events = append(events, ev{
			"name": r.Filter, "ph": "X", "pid": pid,
			"tid": tid[pid][fmt.Sprintf("%s/%d", r.Filter, r.Instance)],
			"ts":  usec(r.Start), "dur": usec(r.End - r.Start),
			"args": ev{"task": r.TaskID, "dev": r.Kind.String()},
		})
	}
	// Lineage flow arrows: link each processed event to the parent event
	// that created its buffer. The child's task ID is the flow id (each
	// buffer has exactly one parent); last-wins on re-processed records so
	// crash-recovery reruns link their final incarnations.
	byTask := make(map[uint64]core.ProcRecord, len(l.procs))
	for _, r := range l.procs {
		byTask[r.TaskID] = r
	}
	for _, r := range l.procs {
		if r.Parent == 0 {
			continue
		}
		p, ok := byTask[r.Parent]
		if !ok || p.End > r.Start {
			continue // parent not traced, or reprocessed after the child began
		}
		ppid := p.NodeID + 1
		pid := r.NodeID + 1
		events = append(events,
			ev{
				"name": "lineage", "cat": "lineage", "ph": "s", "id": r.TaskID,
				"pid": ppid, "tid": tid[ppid][fmt.Sprintf("%s/%d", p.Filter, p.Instance)],
				"ts": usec(p.End),
			},
			ev{
				"name": "lineage", "cat": "lineage", "ph": "f", "bp": "e", "id": r.TaskID,
				"pid": pid, "tid": tid[pid][fmt.Sprintf("%s/%d", r.Filter, r.Instance)],
				"ts": usec(r.Start),
			})
	}
	// Transfer-pipeline spans on their own lanes, tagged with their buffer.
	for _, r := range l.spans {
		pid := r.NodeID + 1
		args := ev{"task": r.TaskID}
		if r.Bytes > 0 {
			args["bytes"] = r.Bytes
		}
		events = append(events, ev{
			"name": r.Kind.String(), "ph": "X", "pid": pid,
			"tid": tid[pid][fmt.Sprintf("%s/%d %s", r.Filter, r.Instance, r.Kind)],
			"ts":  usec(r.Start), "dur": usec(r.End - r.Start),
			"args": args,
		})
	}
	// Counter tracks: DQAA targets and queue depths, on the metrics process.
	for _, r := range l.targets {
		events = append(events, ev{
			"name": fmt.Sprintf("dqaa %s/%d/%s", r.Filter, r.Instance, r.Worker),
			"ph":   "C", "pid": 0, "tid": tid[0]["counters"],
			"ts": usec(r.At), "args": ev{"target": r.Target},
		})
	}
	for _, r := range l.depths {
		events = append(events, ev{
			"name": fmt.Sprintf("queue %s/%d/%s", r.Filter, r.Instance, r.Queue),
			"ph":   "C", "pid": 0, "tid": tid[0]["counters"],
			"ts": usec(r.At), "args": ev{"depth": r.Depth},
		})
	}
	// Fault injections as instant events.
	for _, r := range l.faults {
		pid := faultPid(r)
		events = append(events, ev{
			"name": fmt.Sprintf("%s %s", r.Kind, r.Phase),
			"ph":   "I", "s": "p", "pid": pid, "tid": tid[pid]["faults"],
			"ts": usec(r.At), "args": ev{"detail": r.Detail},
		})
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(ev{"displayTimeUnit": "ms", "traceEvents": events}); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// faultPid maps a fault record to its trace process.
func faultPid(r core.FaultRecord) int {
	if r.Node < 0 {
		return 0
	}
	return r.Node + 1
}
