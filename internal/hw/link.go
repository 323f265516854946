package hw

import (
	"repro/internal/sim"
)

// Direction of a PCIe transfer.
type Direction int

const (
	// HostToDevice copies input data from CPU memory to the GPU.
	HostToDevice Direction = iota
	// DeviceToHost copies results back.
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// LinkConfig parameterizes a PCIe link model.
type LinkConfig struct {
	// BandwidthBps is the sustained DMA bandwidth in bytes per second.
	BandwidthBps float64
	// Latency is the fixed per-transfer setup cost (driver call, DMA
	// descriptor programming).
	Latency sim.Time
	// Congestion is the fractional slowdown of a transfer's wire time per
	// additional in-flight transfer at service start. It models the driver
	// and memory-pinning overhead that makes GPU throughput *decrease*
	// beyond the optimal number of concurrent CUDA streams (Section 5.1);
	// without it more streams would only ever help.
	Congestion float64
}

// Link models the PCIe connection between a node's CPU memory and its GPU.
//
// A single DMA engine serves transfers FIFO (as on the paper's pre-Fermi
// NVIDIA part, where concurrent copies are only effective in one direction
// at a time: the engine serializes everything, and grouping transfers per
// direction — which Algorithm 1 does — is what keeps the pipeline dense).
// The service time of a transfer grows with the number of transfers that
// are in flight when it starts, reproducing the saturation behaviour of
// Figure 7.
type Link struct {
	cfg      LinkConfig
	engine   *sim.Resource
	inflight int
	traffic  [2]int64 // bytes moved per direction
	busy     sim.Time
	degLat   sim.Time  // fault-injected per-transfer latency penalty
	degBW    float64   // fault-injected bandwidth scale (1 = healthy)
	free     []*copyOp // records of finished CopyThen calls
}

// NewLink creates a PCIe link.
func NewLink(k *sim.Kernel, cfg LinkConfig) *Link {
	if cfg.BandwidthBps <= 0 {
		panic("hw: link bandwidth must be positive")
	}
	return &Link{cfg: cfg, engine: sim.NewResource(k, 1), degBW: 1}
}

// Degrade perturbs the link: latAdd is added to every transfer's setup cost
// and the DMA bandwidth is multiplied by bwMul (> 0). Fault injectors revert
// with (-latAdd, 1/bwMul); effects compose across overlapping windows.
func (l *Link) Degrade(latAdd sim.Time, bwMul float64) {
	if bwMul <= 0 {
		panic("hw: bandwidth scale must be positive")
	}
	l.degLat += latAdd
	l.degBW *= bwMul
}

// Copy transfers bytes in the given direction, blocking the caller until the
// transfer completes. Concurrency is achieved by issuing copies from
// multiple processes (one per in-flight event), exactly how the transfer
// controller in internal/xfer uses it.
func (l *Link) Copy(e *sim.Env, bytes int64, dir Direction) {
	if bytes < 0 {
		panic("hw: negative transfer size")
	}
	l.inflight++
	l.engine.Acquire(e)
	// Sample congestion at service start: every other transfer still in
	// flight (queued behind us or just issued) costs management overhead.
	extra := float64(l.inflight - 1)
	wire := sim.Time(float64(bytes)/(l.cfg.BandwidthBps*l.degBW)) * sim.Time(1+l.cfg.Congestion*extra)
	d := l.cfg.Latency + l.degLat + wire
	start := e.Now()
	e.Sleep(d)
	l.engine.Release()
	l.inflight--
	l.traffic[dir] += bytes
	l.busy += e.Now() - start
}

// CopyThen is the continuation form of Copy, for stackless (step) processes:
// the transfer joins the DMA engine's FIFO queue (shared with blocking
// callers, so arbitration order is one discipline across flavours), samples
// congestion at service start exactly as Copy does, and runs next once the
// bytes have moved. Steps must return the directive CopyThen returns.
//
// Each call runs on a copyOp record from the link's pool, whose steps are
// bound once, so a copy allocates nothing in steady state when next is
// itself a bound step.
func (l *Link) CopyThen(e *sim.Env, bytes int64, dir Direction, next sim.Step) sim.Cont {
	if bytes < 0 {
		panic("hw: negative transfer size")
	}
	l.inflight++
	var op *copyOp
	if n := len(l.free); n > 0 {
		op = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		op = &copyOp{l: l}
		op.serveStep, op.doneStep = op.serve, op.done
	}
	op.bytes, op.dir, op.next = bytes, dir, next
	return l.engine.AcquireThen(e, op.serveStep)
}

// copyOp is the state of one in-flight CopyThen.
type copyOp struct {
	l         *Link
	bytes     int64
	dir       Direction
	start     sim.Time
	next      sim.Step
	serveStep sim.Step // serve
	doneStep  sim.Step // done
}

// serve holds the DMA engine for the transfer's service time.
func (op *copyOp) serve(e *sim.Env) sim.Cont {
	l := op.l
	extra := float64(l.inflight - 1)
	wire := sim.Time(float64(op.bytes)/(l.cfg.BandwidthBps*l.degBW)) * sim.Time(1+l.cfg.Congestion*extra)
	op.start = e.Now()
	return sim.After(l.cfg.Latency+l.degLat+wire, op.doneStep)
}

// done releases the engine, accounts the transfer, returns the record to
// the pool and runs the continuation.
func (op *copyOp) done(e *sim.Env) sim.Cont {
	l, next := op.l, op.next
	l.engine.Release()
	l.inflight--
	l.traffic[op.dir] += op.bytes
	l.busy += e.Now() - op.start
	op.next = nil
	l.free = append(l.free, op)
	return next(e)
}

// TransferTime returns the uncongested time to move bytes one way. Useful
// for cost accounting and tests.
func (l *Link) TransferTime(bytes int64) sim.Time {
	return l.cfg.Latency + sim.Time(float64(bytes)/l.cfg.BandwidthBps)
}

// Traffic returns the total bytes moved in the given direction.
func (l *Link) Traffic(dir Direction) int64 { return l.traffic[dir] }

// Busy returns the accumulated engine busy time.
func (l *Link) Busy() sim.Time { return l.busy }

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }
