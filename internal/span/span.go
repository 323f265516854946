// Package span is the attribution engine: it assembles, per data buffer, a
// causal lineage of typed spans from the runtime's hook bus — upstream emit
// → send-queue (stream-policy / DQAA slot) wait → network transfer →
// input-queue wait and device dispatch → service (split into h2d / kernel /
// d2h pipeline steps for GPU workers) — linked parent→child across filter
// hops by the task lineage IDs the crash-recovery tracker already
// maintains. From the assembled lineages it extracts the critical path of a
// run (the dependency chain ending at the buffer whose completion set the
// makespan), a makespan breakdown per span kind / device class / filter,
// and a top-K bottleneck-buffer table: the answer to "why is this run
// slow?".
//
// Everything is computed from the deterministic hook stream and rendered
// with sorted keys and fixed formatting, so for a fixed seed the Summary()
// text and the Encode() JSON artifact are byte-identical across repeated
// runs, serial or parallel — the property `make explain-determinism` pins
// down. Like every bus subscriber, an unattached collector costs the hot
// path nothing: all hooks stay nil.
package span

import (
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// Kind classifies one span of a buffer's lineage.
type Kind int

const (
	// Source is the demand-driven generation wait at a lazy source: the
	// time from the simulation epoch (or the previous hop) until the
	// buffer was actually produced into a send queue.
	Source Kind = iota
	// Queue is the send-queue wait at the producer — the time the stream
	// policy (demand signals, DQAA request slots) left the buffer queued
	// before a consumer's request (or the push loop) selected it.
	Queue
	// Net is the network transfer from producer to consumer.
	Net
	// InQueue is the input-queue wait at the consumer, up to the event
	// scheduler's dispatch decision (DDFCFS/DDWRR/ODDS pop).
	InQueue
	// Service is CPU service: the handler running on the worker's device.
	Service
	// H2D is the host-to-device input copy of the GPU transfer pipeline.
	H2D
	// Kernel is the kernel execution on the GPU.
	Kernel
	// D2H is the device-to-host output copy.
	D2H
	// DevWait is time inside a GPU worker's service window spent waiting
	// for the device or link while pipeline siblings occupy them.
	DevWait
	// Handoff is a lineage hop that pays a control transfer before the
	// buffer re-enters a send queue: resubmission to the root source, or
	// a crash-recovery re-enqueue.
	Handoff

	numKinds
)

var kindNames = [numKinds]string{
	"source", "queue", "net", "inqueue", "service",
	"h2d", "kernel", "d2h", "devwait", "handoff",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "invalid"
	}
	return kindNames[k]
}

// ParseKind maps a kind name back to its Kind; ok is false for unknown
// names (used by the artifact decoder).
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// XSpan is one transfer-pipeline step of a buffer's service window.
type XSpan struct {
	Kind  xfer.SpanKind
	Start sim.Time
	End   sim.Time
}

// Buffer is the assembled lineage state of one data buffer (task ID).
// Timestamps follow a first-emit / latest-everything-else discipline: the
// first emit anchors the buffer to its creator (forwards fire it at the
// parent handler's completion instant), while crash recovery may re-send
// and re-deliver — the final successful journey is what the critical path
// attributes, with the wasted earlier attempts absorbed into the waits.
type Buffer struct {
	ID     uint64
	Parent uint64
	Stream string
	Bytes  int64

	Producer     string
	ProducerInst int
	Consumer     string
	ConsumerInst int

	Emit, Sent, Deliver             sim.Time
	HaveEmit, HaveSent, HaveDeliver bool
	Push                            bool

	Start, End sim.Time
	Processed  bool
	Device     hw.Kind
	NodeID     int

	X []XSpan
}

// Collector subscribes to a runtime's hook bus and assembles buffer
// lineages. Attach before rt.Run; Build (batch runs) or BuildRequest
// (open-system request roots) after.
type Collector struct {
	bufs  map[uint64]*Buffer
	order []uint64 // first-seen order, for deterministic iteration
	// inject records the admission instant of every accepted open-system
	// request root (Admit hook), the left edge of its per-request tiling.
	inject map[uint64]sim.Time
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{bufs: make(map[uint64]*Buffer), inject: make(map[uint64]sim.Time)}
}

// Injected returns the admission instant of an accepted request root, and
// whether the Admit hook recorded one.
func (c *Collector) Injected(id uint64) (sim.Time, bool) {
	t, ok := c.inject[id]
	return t, ok
}

// buf returns (creating if needed) the buffer record for a task ID.
func (c *Collector) buf(id uint64) *Buffer {
	b := c.bufs[id]
	if b == nil {
		b = &Buffer{ID: id, ProducerInst: -1, ConsumerInst: -1}
		c.bufs[id] = b
		c.order = append(c.order, id)
	}
	return b
}

// Buffers returns the number of tracked buffers.
func (c *Collector) Buffers() int { return len(c.bufs) }

// Attach taps the collector onto the runtime's bus (core.Tap). Call before
// rt.Run.
func (c *Collector) Attach(rt *core.Runtime) {
	core.Tap(&rt.Hooks.Emit, func(r core.EmitRecord) {
		b := c.buf(r.TaskID)
		if !b.HaveEmit {
			b.HaveEmit = true
			b.Emit = r.At
			b.Parent = r.Parent
			b.Stream = r.Stream
			b.Producer = r.Filter
			b.ProducerInst = r.Instance
			b.Bytes = r.Bytes
		}
	})
	core.Tap(&rt.Hooks.Send, func(r core.SendRecord) {
		b := c.buf(r.TaskID)
		b.Sent = r.At
		b.HaveSent = true
	})
	core.Tap(&rt.Hooks.Deliver, func(r core.DeliverRecord) {
		b := c.buf(r.TaskID)
		b.Deliver = r.At
		b.HaveDeliver = true
		b.Consumer = r.Filter
		b.ConsumerInst = r.Instance
		b.Push = r.Push
	})
	core.Tap(&rt.Hooks.Process, func(r core.ProcRecord) {
		b := c.buf(r.TaskID)
		b.Processed = true
		b.Start = r.Start
		b.End = r.End
		b.Device = r.Kind
		b.NodeID = r.NodeID
		if b.Parent == 0 {
			b.Parent = r.Parent
		}
		b.Consumer = r.Filter
		b.ConsumerInst = r.Instance
	})
	core.Tap(&rt.Hooks.Admit, func(r core.AdmitRecord) {
		if r.Accepted {
			// Rejected arrivals carry TaskID 0 and never enter the system;
			// accepted ones become per-request lineage roots.
			c.inject[r.TaskID] = r.At
		}
	})
	core.Tap(&rt.Hooks.Span, func(r core.SpanRecord) {
		b := c.buf(r.TaskID)
		b.X = append(b.X, XSpan{Kind: r.Kind, Start: r.Start, End: r.End})
	})
}
