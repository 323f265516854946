package xfer

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/task"
)

// Executor runs batches of events on a GPU behind a PCIe link, in either
// synchronous mode (copy → kernel → copy back, one event at a time, no
// overlap — the baseline of Figure 6) or asynchronous mode (Algorithm 1:
// all host-to-device copies of the batch issued concurrently, kernels
// executed as their inputs land, then all device-to-host copies issued
// concurrently — transfers grouped per direction so the concurrent copy
// engine is actually used).
type Executor struct {
	Dev   *hw.Device
	Link  *hw.Link
	Async bool
	// OnSpan, if set, is called after every pipeline span — one
	// host-to-device copy, one kernel execution, or one device-to-host
	// copy — with the span's virtual-time bounds. Nil costs nothing.
	OnSpan func(Span)

	free []*copyJob     // pooled transfer records of the asynchronous pipeline
	out  *sim.WaitGroup // output copies of the running batch, made on first use
}

// SpanKind classifies a transfer-pipeline span.
type SpanKind int

const (
	// SpanH2D is a host-to-device input copy.
	SpanH2D SpanKind = iota
	// SpanKernel is a kernel execution on the device.
	SpanKernel
	// SpanD2H is a device-to-host output copy.
	SpanD2H
)

func (k SpanKind) String() string {
	switch k {
	case SpanH2D:
		return "h2d"
	case SpanKernel:
		return "kernel"
	case SpanD2H:
		return "d2h"
	default:
		return "span"
	}
}

// Span is one timed step of the transfer pipeline.
type Span struct {
	Kind  SpanKind
	Start sim.Time
	End   sim.Time
	// Bytes is the transfer size; 0 for kernel spans.
	Bytes int64
	// Task is the ID of the data buffer the span belongs to, so
	// subscribers can assemble a per-buffer pipeline lineage.
	Task uint64
}

// span reports one completed step to the OnSpan subscriber.
func (x *Executor) span(kind SpanKind, start, end sim.Time, bytes int64, taskID uint64) {
	if x.OnSpan != nil {
		x.OnSpan(Span{Kind: kind, Start: start, End: end, Bytes: bytes, Task: taskID})
	}
}

// NewExecutor creates an executor for one GPU and its link.
func NewExecutor(dev *hw.Device, link *hw.Link, async bool) *Executor {
	if dev == nil || link == nil {
		panic("xfer: executor needs a device and a link")
	}
	return &Executor{Dev: dev, Link: link, Async: async}
}

// RunBatch executes the batch and returns its wall (virtual) duration. The
// caller forwards results afterwards; RunBatch covers input copies, kernel
// executions and output copies only. An Executor runs one batch at a time.
func (x *Executor) RunBatch(e *sim.Env, batch []*task.Task) sim.Time {
	if len(batch) == 0 {
		return 0
	}
	start := e.Now()
	if x.Async {
		x.runAsync(e, batch)
	} else {
		x.runSync(e, batch)
	}
	return e.Now() - start
}

func (x *Executor) runSync(e *sim.Env, batch []*task.Task) {
	// Synchronous copies: the host thread drives each transfer to
	// completion before launching the kernel, and the GPU sits idle during
	// both copies.
	for _, t := range batch {
		t0 := e.Now()
		x.Link.Copy(e, t.Size, hw.HostToDevice)
		t1 := e.Now()
		x.span(SpanH2D, t0, t1, t.Size, t.ID)
		x.Dev.Run(e, t.Cost(hw.GPU))
		t2 := e.Now()
		x.span(SpanKernel, t1, t2, 0, t.ID)
		x.Link.Copy(e, t.OutSize, hw.DeviceToHost)
		x.span(SpanD2H, t2, e.Now(), t.OutSize, t.ID)
	}
}

func (x *Executor) runAsync(e *sim.Env, batch []*task.Task) {
	// Phase 1: issue every host-to-device copy on its own CUDA stream. Each
	// transfer is a stackless step chain — a link-queue hop plus a timed
	// wait, no coroutine stack needed — on the buffer's pooled copyJob; the
	// jobs of this batch are linked in batch order from head.
	var head, tail *copyJob
	for _, t := range batch {
		j := x.job(e.Kernel())
		j.size, j.id = t.Size, t.ID
		j.landed.Add(1)
		if tail == nil {
			head = j
		} else {
			tail.link = j
		}
		tail = j
		e.SpawnStep("h2d", j.h2dStep)
	}
	// Phase 2: process events in order as their inputs arrive; the copy of
	// event i+1 overlaps the kernel of event i.
	j := head
	for _, t := range batch {
		j.landed.Wait(e)
		t0 := e.Now()
		x.Dev.Run(e, t.Cost(hw.GPU))
		x.span(SpanKernel, t0, e.Now(), 0, t.ID)
		j = j.link
	}
	// Phase 3: issue every device-to-host copy, then wait for all of them.
	if x.out == nil {
		x.out = sim.NewWaitGroup(e.Kernel())
	}
	x.out.Add(len(batch))
	j = head
	for _, t := range batch {
		j.size = t.OutSize
		e.SpawnStep("d2h", j.d2hStep)
		j = j.link
	}
	x.out.Wait(e)
	for j := head; j != nil; {
		next := j.link
		j.link = nil
		x.free = append(x.free, j)
		j = next
	}
}

// copyJob is one buffer's pair of transfers in the asynchronous pipeline:
// its host-to-device copy, then its device-to-host copy. Records are pooled
// per Executor and their steps bound once, so the stackless pipeline
// allocates nothing per transfer in steady state.
type copyJob struct {
	x       *Executor
	size    int64
	id      uint64
	t0      sim.Time
	landed  *sim.WaitGroup // one-shot "input copy done" (Add(1), then Done)
	link    *copyJob       // next job of the batch
	h2dStep sim.Step       // h2d
	h2dDone sim.Step       // h2dLanded
	d2hStep sim.Step       // d2h
	d2hDone sim.Step       // d2hLanded
}

// job returns a copyJob from the pool, or a new one with its steps bound.
func (x *Executor) job(k *sim.Kernel) *copyJob {
	if n := len(x.free); n > 0 {
		j := x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
		return j
	}
	j := &copyJob{x: x, landed: sim.NewWaitGroup(k)}
	j.h2dStep, j.h2dDone, j.d2hStep, j.d2hDone = j.h2d, j.h2dLanded, j.d2h, j.d2hLanded
	return j
}

func (j *copyJob) h2d(ce *sim.Env) sim.Cont {
	j.t0 = ce.Now()
	return j.x.Link.CopyThen(ce, j.size, hw.HostToDevice, j.h2dDone)
}

func (j *copyJob) h2dLanded(ce *sim.Env) sim.Cont {
	j.x.span(SpanH2D, j.t0, ce.Now(), j.size, j.id)
	j.landed.Done()
	return sim.Done()
}

func (j *copyJob) d2h(ce *sim.Env) sim.Cont {
	j.t0 = ce.Now()
	return j.x.Link.CopyThen(ce, j.size, hw.DeviceToHost, j.d2hDone)
}

func (j *copyJob) d2hLanded(ce *sim.Env) sim.Cont {
	j.x.span(SpanD2H, j.t0, ce.Now(), j.size, j.id)
	j.x.out.Done()
	return sim.Done()
}
