package serve

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// The open-system pipeline shared by this engine, the serving and policylab
// experiments and the serving capture: arrivals -> an admission-controlled
// gateway -> a heterogeneous CPU/GPU serve stage, audited by a Sink.
const (
	// CPUCost and GPUCost are one request's service time on a CPU and on a
	// GPU worker.
	CPUCost = sim.Millisecond
	GPUCost = 300 * sim.Microsecond

	// DefaultSLO is the end-to-end latency objective requests are audited
	// against.
	DefaultSLO = 5 * sim.Millisecond
	// DefaultQueueLimit bounds the gateway's send queue; past it the
	// gateway sheds instead of queueing unboundedly.
	DefaultQueueLimit = 32
)

// Capacity is the aggregate service rate of one Pool in requests per
// second: node 0 contributes one CPU worker, node 1 one CPU worker plus one
// GPU worker.
const Capacity = 2.0/0.001 + 1.0/0.0003

// Pool is the serving pool's node shape: one CPU-only node, one GPU node.
func Pool() []hw.NodeSpec {
	return []hw.NodeSpec{{CPUCores: 2}, {CPUCores: 2, HasGPU: true}}
}

// Request builds one serving request: 8 KiB in, 1 KiB out, costing CPUCost
// on a CPU worker and GPUCost on a GPU worker.
func Request(int) *task.Task {
	return &task.Task{Size: 8 << 10, OutSize: 1 << 10, Cost: requestCost}
}

func requestCost(kw hw.Kind) sim.Time {
	if kw == hw.GPU {
		return GPUCost
	}
	return CPUCost
}

// Pipeline adds one open-system pipeline to rt: an Open gateway filter on
// node gateway that sheds arrivals once queueLimit requests wait in its
// send queue, a serve filter on placement with one CPU and one GPU worker
// per node, the stream pol between them, and an arrival pacer injecting
// mk(k) at times[k]. The filters are named "gateway"+suffix and
// "serve"+suffix. Call it before the runtime starts; the returned Stats are
// final once the run drains.
func Pipeline(rt *core.Runtime, suffix string, gateway int, placement []int,
	pol policy.StreamPolicy, queueLimit int, times []sim.Time, mk func(k int) *task.Task) *arrival.Stats {
	gw := rt.AddFilter(core.FilterSpec{
		Name: "gateway" + suffix, Placement: []int{gateway},
		Open: true, QueueLimit: queueLimit,
	})
	srv := rt.AddFilter(core.FilterSpec{
		Name: "serve" + suffix, Placement: placement,
		CPUWorkers: 1, UseGPU: true, GPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(gw, srv, pol)
	return arrival.Drive(rt, gw, times, mk)
}

// Breakdown is the stage attribution of one served request: admitted at the
// gateway, delivered to a serve replica, serviced from Start to End.
type Breakdown struct {
	TaskID                     uint64
	Node                       int
	Kind                       hw.Kind
	Admit, Deliver, Start, End sim.Time
}

// Latency is the request's end-to-end latency, admission to service end.
func (b Breakdown) Latency() sim.Time { return b.End - b.Admit }

func (b Breakdown) String() string {
	ms := func(t sim.Time) string { return fmt.Sprintf("%.3f", float64(t)/float64(sim.Millisecond)) }
	return fmt.Sprintf("task %d via serve/%d (%s): total %s ms = gateway %s + wait %s + service %s",
		b.TaskID, b.Node, b.Kind, ms(b.Latency()),
		ms(b.Deliver-b.Admit), ms(b.Start-b.Deliver), ms(b.End-b.Start))
}

// servedMark replaces the admit time of a request once it is serviced, so
// a second service of the same request is told apart from one never
// admitted.
const servedMark sim.Time = -1

// Sink is the hook-bus audit of one Pipeline: admission and delivery
// times, the latency of every served request, SLO violations with the worst
// violator's stage breakdown, the gateway's send-queue depth, and
// exactly-once service. Its fields are final once the run drains.
type Sink struct {
	// Win, if non-nil, also receives each latency at its service end.
	Win *obs.WindowedSketch
	// OnEvent, if non-nil, receives each shed arrival and each SLO
	// violation, with Policy left empty.
	OnEvent func(Event)

	// Cum holds the latency of every served request.
	Cum        *obs.Sketch
	Served     int
	Violations int
	// Depth and MaxDepth are the gateway send queue's current and peak
	// length.
	Depth, MaxDepth int
	// Worst is the worst SLO violator so far; a zero TaskID means none.
	Worst Breakdown
	// Err is the first exactly-once breach: a request serviced without
	// an admission, or serviced twice.
	Err error

	slo                sim.Time
	gateway, serve     string
	admitAt, deliverAt map[uint64]sim.Time
}

// NewSink returns the audit of the Pipeline whose filters carry suffix,
// checking latencies against slo; n sizes its per-request maps (the
// arrival count).
func NewSink(suffix string, slo sim.Time, n int) *Sink {
	return &Sink{
		Cum: obs.NewSketch(obs.DefaultEps),
		slo: slo, gateway: "gateway" + suffix, serve: "serve" + suffix,
		admitAt:   make(map[uint64]sim.Time, n),
		deliverAt: make(map[uint64]sim.Time, n),
	}
}

// Attach taps the sink onto rt's hook bus (core.Tap), keeping the records
// of its own pipeline's filters.
func (s *Sink) Attach(rt *core.Runtime) {
	core.Tap(&rt.Hooks.Admit, func(r core.AdmitRecord) {
		if r.Filter == s.gateway {
			s.admit(r)
		}
	})
	core.Tap(&rt.Hooks.QueueDepth, func(r core.QueueDepthRecord) {
		if r.Filter == s.gateway && r.Queue == "send" {
			s.Depth = r.Depth
			if r.Depth > s.MaxDepth {
				s.MaxDepth = r.Depth
			}
		}
	})
	core.Tap(&rt.Hooks.Deliver, func(r core.DeliverRecord) {
		if r.Filter == s.serve {
			s.deliverAt[r.TaskID] = r.At
		}
	})
	core.Tap(&rt.Hooks.Process, func(r core.ProcRecord) {
		if r.Filter == s.serve {
			s.process(r)
		}
	})
}

func (s *Sink) admit(r core.AdmitRecord) {
	if r.Accepted {
		s.admitAt[r.TaskID] = r.At
	} else if s.OnEvent != nil {
		s.OnEvent(Event{At: float64(r.At), Type: "shed", Task: r.TaskID})
	}
}

func (s *Sink) process(r core.ProcRecord) {
	at, ok := s.admitAt[r.TaskID]
	if !ok || at == servedMark {
		if s.Err == nil {
			what := "without an admit record"
			if ok {
				what = "twice"
			}
			s.Err = fmt.Errorf("serve: task %d processed %s", r.TaskID, what)
		}
		return
	}
	s.admitAt[r.TaskID] = servedMark
	lat := r.End - at
	s.Served++
	if s.Win != nil {
		s.Win.Add(r.End, float64(lat))
	}
	s.Cum.Add(float64(lat))
	if lat <= s.slo {
		return
	}
	s.Violations++
	if s.OnEvent != nil {
		s.OnEvent(Event{At: float64(r.End), Type: "slo_violation", Task: r.TaskID,
			LatencyMS: float64(lat) / float64(sim.Millisecond)})
	}
	if lat > s.Worst.Latency() || s.Worst.TaskID == 0 {
		s.Worst = Breakdown{TaskID: r.TaskID, Node: r.NodeID, Kind: r.Kind,
			Admit: at, Deliver: s.deliverAt[r.TaskID], Start: r.Start, End: r.End}
	}
}
