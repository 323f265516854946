package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xfer"
)

// This file is the runtime's hook bus: a set of optional callbacks that the
// runtime fires at well-defined points of a run, the one observability
// surface that the metrics registry (internal/obs), the trace-event exporter
// (internal/trace), span attribution (internal/span) and the serving sink
// (internal/serve) subscribe to.
//
// Every hook is nil by default and every emission site is guarded by a nil
// check, so a run with no subscribers pays nothing beyond the branch — the
// hot path stays allocation-free (gated by the alloc-regression benches in
// internal/sim). All hooks fire synchronously from simulation processes, in
// virtual-time order, so for a fixed seed the event sequence is fully
// deterministic: subscribers that render their records byte-for-byte (obs,
// trace) produce byte-identical output across repeated runs.

// Bus is the set of runtime hooks. Fields may be set any time before Run;
// a subscriber that must share a hook with others subscribes with Tap.
type Bus struct {
	// Process fires after every processed event (handler completed).
	Process func(ProcRecord)
	// Target fires whenever DQAA changes a worker's target request size.
	Target func(TargetRecord)
	// QueueDepth fires whenever the length of an input queue, a send
	// queue, or a labeled-stream send partition changes.
	QueueDepth func(QueueDepthRecord)
	// Demand fires at each step of the demand protocol (Algorithm 3): a
	// request issued upstream, and its outcome (data, empty, EOF).
	Demand func(DemandRecord)
	// Send fires when a sender ships a data buffer downstream, on both the
	// demand-driven and the push path. It marks the start of the buffer's
	// network transfer; the matching Deliver marks its end.
	Send func(SendRecord)
	// Emit fires when a data buffer enters a sender's send queue: at
	// source seeding, on-demand generation, handler forwards, resubmission
	// arrival, and crash-recovery re-enqueues. Together with Deliver it
	// carries the lineage IDs the attribution engine (internal/span) links
	// spans with.
	Emit func(EmitRecord)
	// Deliver fires when a data buffer lands in a live consumer's input
	// queue, on both the demand-driven and the push path.
	Deliver func(DeliverRecord)
	// Fault fires when a fault-injection action takes effect (and, for
	// windowed faults, when the window ends). Crash faults fire from
	// CrashInstance; windowed hardware faults fire from fault.Apply.
	Fault func(FaultRecord)
	// Admit fires at every open-arrival admission decision (Runtime.Inject):
	// accepted requests as they enter an Open source's send queue, rejected
	// ones as admission control sheds them at the queue bound.
	Admit func(AdmitRecord)
	// Span fires for every transfer-pipeline span of a GPU worker: one
	// host-to-device copy, one kernel execution, or one device-to-host
	// copy (see xfer.Span).
	Span func(SpanRecord)
}

// Tap subscribes fn to the hook *h, keeping any subscriber already there.
// On an empty hook fn is installed as is; otherwise fn runs first, then the
// hook that was installed before it, so taps fire newest first.
func Tap[R any](h *func(R), fn func(R)) {
	prev := *h
	if prev == nil {
		*h = fn
		return
	}
	*h = func(r R) {
		fn(r)
		prev(r)
	}
}

// QueueDepthRecord traces one change of a runtime queue's length.
type QueueDepthRecord struct {
	// Filter and Instance identify the transparent copy owning the queue.
	Filter   string
	Instance int
	// Queue names the queue within the instance: "in0", "in1", ... for
	// input StreamOutQueues, "send" for the SendQueue, "send.p0", ... for
	// labeled-stream send partitions.
	Queue string
	At    sim.Time
	// Depth is the queue's length after the change.
	Depth int
}

// DemandEvent is one step of the demand protocol.
type DemandEvent int

const (
	// DemandIssued: a worker's requester sent a data request upstream.
	DemandIssued DemandEvent = iota
	// DemandData: the request was answered with a data buffer.
	DemandData
	// DemandEmpty: the request was answered with an empty message (NACK).
	DemandEmpty
	// DemandEOF: the request was answered with end-of-stream.
	DemandEOF
)

func (d DemandEvent) String() string {
	switch d {
	case DemandIssued:
		return "issued"
	case DemandData:
		return "data"
	case DemandEmpty:
		return "empty"
	case DemandEOF:
		return "eof"
	default:
		return fmt.Sprintf("DemandEvent(%d)", int(d))
	}
}

// DemandRecord traces one step of a worker's demand protocol on one input
// stream.
type DemandRecord struct {
	// Filter and Instance identify the consuming transparent copy.
	Filter   string
	Instance int
	// Worker is the requesting worker thread (see worker.name).
	Worker string
	// Input is the input-stream index the request belongs to.
	Input int
	At    sim.Time
	Event DemandEvent
	// Outstanding is the worker's requestSize after this step: buffers in
	// transit plus received and queued, as the paper defines it.
	Outstanding int
}

// SendRecord traces one data buffer shipped on a stream.
type SendRecord struct {
	// Stream is "from->to" in filter names.
	Stream string
	// FromInstance is the sending transparent copy.
	FromInstance int
	// ToInstance is the receiving transparent copy.
	ToInstance int
	TaskID     uint64
	Bytes      int64
	At         sim.Time
	// Push marks buffers shipped by the push path (no demand signal).
	Push bool
}

// EmitRecord traces one data buffer entering a sender's send queue — the
// upstream end of the buffer's journey down a stream. Re-emits happen when
// crash recovery moves a buffer back into a (possibly different) live
// sender's queue; the task ID stays the same.
type EmitRecord struct {
	// Stream is "from->to" in filter names.
	Stream string
	// Filter and Instance identify the emitting transparent copy.
	Filter   string
	Instance int
	TaskID   uint64
	// Parent is the ID of the task whose processing created this buffer
	// (0 for source-born buffers) — the causal lineage link.
	Parent uint64
	Bytes  int64
	At     sim.Time
}

// DeliverRecord traces one data buffer landing in a live consumer's input
// queue — the downstream end of its network transfer.
type DeliverRecord struct {
	// Stream is "from->to" in filter names.
	Stream string
	// Filter and Instance identify the consuming transparent copy.
	Filter   string
	Instance int
	// Input is the consumer's input-stream index the buffer landed on.
	Input  int
	TaskID uint64
	At     sim.Time
	// Push marks buffers delivered by the push path (no demand signal).
	Push bool
}

// FaultRecord traces one fault-injection action taking effect.
type FaultRecord struct {
	// Kind is the fault class: "slow", "net", "pcie", or "crash".
	Kind string
	// Phase is "begin" or "end" for windowed faults, "crash" for crashes.
	Phase string
	At    sim.Time
	// Node is the affected node (windowed hardware faults), -1 otherwise.
	Node int
	// Filter and Instance identify the crashed copy (crash faults only).
	Filter   string
	Instance int
	// Detail is the schedule event's canonical spec string.
	Detail string
}

// AdmitRecord traces one open-arrival admission decision.
type AdmitRecord struct {
	// Filter and Instance identify the Open source copy that took the
	// decision.
	Filter   string
	Instance int
	// TaskID is the admitted request (0 for rejected arrivals, which never
	// enter the system and get no identity).
	TaskID uint64
	At     sim.Time
	// Depth is the send-queue depth the decision observed (pre-insertion).
	Depth int
	// Limit is the filter's QueueLimit (0 = unbounded).
	Limit    int
	Accepted bool
}

// SpanRecord traces one transfer-pipeline span (copy or kernel) of a GPU
// worker, attributed to its filter instance and node.
type SpanRecord struct {
	Filter   string
	Instance int
	// Worker is the GPU worker thread driving the pipeline.
	Worker string
	NodeID int
	Kind   xfer.SpanKind
	Start  sim.Time
	End    sim.Time
	// Bytes is the transfer size (0 for kernel spans).
	Bytes int64
	// TaskID is the data buffer the span belongs to.
	TaskID uint64
}

// EmitFault publishes a fault record on the bus (no-op without subscriber).
// Exported for internal/fault, which applies windowed hardware faults.
func (rt *Runtime) EmitFault(r FaultRecord) {
	if rt.Hooks.Fault != nil {
		rt.Hooks.Fault(r)
	}
}

// noteAdmit publishes one open-arrival admission decision.
func (rt *Runtime) noteAdmit(f *Filter, inst int, id uint64, at sim.Time, depth, limit int, accepted bool) {
	h := rt.Hooks.Admit
	if h == nil {
		return
	}
	h(AdmitRecord{
		Filter:   f.Name(),
		Instance: inst,
		TaskID:   id,
		At:       at,
		Depth:    depth,
		Limit:    limit,
		Accepted: accepted,
	})
}

// noteInputDepth publishes the current depth of input queue qi.
func (inst *Instance) noteInputDepth(qi int) {
	h := inst.rt.Hooks.QueueDepth
	if h == nil {
		return
	}
	h(QueueDepthRecord{
		Filter:   inst.f.Name(),
		Instance: inst.idx,
		Queue:    inQueueName(qi),
		At:       inst.rt.K.Now(),
		Depth:    inst.inputs[qi].queue.Len(),
	})
}

// noteDepth publishes the current depth of the sender's main queue
// (part < 0) or of one labeled-stream partition.
func (s *sender) noteDepth(part int) {
	h := s.inst.rt.Hooks.QueueDepth
	if h == nil {
		return
	}
	name, q := "send", s.queue
	if part >= 0 {
		name, q = fmt.Sprintf("send.p%d", part), s.parts[part]
	}
	h(QueueDepthRecord{
		Filter:   s.inst.f.Name(),
		Instance: s.inst.idx,
		Queue:    name,
		At:       s.inst.rt.K.Now(),
		Depth:    q.Len(),
	})
}

// noteDemand publishes one step of a worker's demand protocol.
func (w *worker) noteDemand(at sim.Time, qi int, ev DemandEvent, outstanding int) {
	h := w.inst.rt.Hooks.Demand
	if h == nil {
		return
	}
	h(DemandRecord{
		Filter:      w.inst.f.Name(),
		Instance:    w.inst.idx,
		Worker:      w.name(),
		Input:       qi,
		At:          at,
		Event:       ev,
		Outstanding: outstanding,
	})
}

// noteSend publishes one shipped data buffer.
func (s *sender) noteSend(toInst int, taskID uint64, bytes int64, push bool) {
	h := s.inst.rt.Hooks.Send
	if h == nil {
		return
	}
	out := s.inst.f.out
	h(SendRecord{
		Stream:       out.from.Name() + "->" + out.to.Name(),
		FromInstance: s.inst.idx,
		ToInstance:   toInst,
		TaskID:       taskID,
		Bytes:        bytes,
		At:           s.inst.rt.K.Now(),
		Push:         push,
	})
}

// noteEmit publishes one buffer entering this sender's send queue. Called
// from sender.push — the single chokepoint every queued buffer passes
// through — so seeds, on-demand generation, forwards, resubmissions and
// crash-recovery re-enqueues all fire it.
func (s *sender) noteEmit(t *task.Task) {
	h := s.inst.rt.Hooks.Emit
	if h == nil {
		return
	}
	out := s.inst.f.out
	h(EmitRecord{
		Stream:   out.from.Name() + "->" + out.to.Name(),
		Filter:   s.inst.f.Name(),
		Instance: s.inst.idx,
		TaskID:   t.ID,
		Parent:   t.Parent,
		Bytes:    t.Size,
		At:       s.inst.rt.K.Now(),
	})
}

// noteDeliver publishes one buffer landing in this instance's input queue qi.
func (inst *Instance) noteDeliver(qi int, t *task.Task, push bool) {
	h := inst.rt.Hooks.Deliver
	if h == nil {
		return
	}
	s := inst.inputs[qi].s
	h(DeliverRecord{
		Stream:   s.from.Name() + "->" + s.to.Name(),
		Filter:   inst.f.Name(),
		Instance: inst.idx,
		Input:    qi,
		TaskID:   t.ID,
		At:       inst.rt.K.Now(),
		Push:     push,
	})
}

// inQueueName returns the canonical name of input queue qi. The first few
// indices are precomputed: real graphs have one or two input streams, and
// the hot path must not pay fmt for them.
func inQueueName(qi int) string {
	switch qi {
	case 0:
		return "in0"
	case 1:
		return "in1"
	case 2:
		return "in2"
	case 3:
		return "in3"
	default:
		return fmt.Sprintf("in%d", qi)
	}
}
