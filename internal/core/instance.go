package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xfer"
)

// Requester back-off bounds for polling senders that currently have no data
// (the paper's Algorithm 3 receives an empty message in that case).
const (
	minBackoff = 100 * sim.Microsecond
	maxBackoff = 2 * sim.Millisecond
)

// fetch is one demand round of Algorithm 3 — the request a consumer sends
// upstream and the reply it waits for — and the record both sides run the
// round on. The request names the device class that triggered it (Section
// 5.3.2) so DBSA can select the best-suited data buffer.
//
// Requesters pool their records (reqLoop.free), reply channel included, and
// every step of the round — demand send, request hand-off, reply wait,
// settle, and the sender's reply transmission — is a method value bound
// when the record is created, so a round allocates nothing in steady state.
type fetch struct {
	l        *reqLoop
	kind     hw.Kind
	from     *hw.Node
	fromInst int // consumer instance index (labeled-stream partitioning)
	reply    *sim.Chan[reply]

	snd  *sender  // the producer this round demands from
	t0   sim.Time // issue time: the request latency DQAA observes starts here
	next sim.Step // run after settling: DoneStep, or the serial requester's loop
	rep  reply    // sender side: the answer in transmission

	// Steps of the round, bound once when startFetch creates the record.
	demandStep, handoffStep, awaitStep sim.Step
	transmitStep, deliverStep          sim.Step
	settleStep                         func(*sim.Env, reply, bool) sim.Cont
}

// reply carries a data buffer, an empty NACK (t == nil), or end-of-stream.
type reply struct {
	t   *task.Task
	eof bool
}

// sender is the producer side of a stream at one filter instance: the
// SendQueue plus the ThreadBufferQueuer/ThreadBufferSender pair of
// Algorithms 4 and 5 (queuing happens inline in push; the sender process,
// runStep, answers requests).
type sender struct {
	inst  *Instance
	name  string // proc name, precomputed at construction
	queue *policy.Queue
	parts []*policy.Queue // per-consumer partitions (labeled streams only)
	reqCh *sim.Chan[*fetch]
	gen   *generator // non-nil for lazy source filters
	// onRequest is gotRequest, bound once: the serve loop's wait
	// continuation.
	onRequest func(*sim.Env, *fetch, bool) sim.Cont
}

// generator is the on-demand production state of a lazy source instance.
type generator struct {
	next, count int
	instance    int
	watermark   int
	make        func(instance, k int) *task.Task
	// fresh tracks which generated tasks are still in the send queue, so
	// the watermark counts *fresh* buffers: a backlog of resubmitted work
	// must not stall the reader (a real demand-driven reader keeps
	// reading regardless of how much recalculation work is queued).
	fresh map[uint64]bool
}

// push inserts a data buffer into the SendQueue (ThreadBufferQueuer). On a
// labeled stream the buffer goes to its label's partition.
func (s *sender) push(t *task.Task) {
	s.noteEmit(t)
	if s.parts != nil {
		stream := s.inst.f.out
		pi := int(stream.labelFn(t) % uint64(len(s.parts)))
		s.parts[pi].Push(t)
		s.noteDepth(pi)
		return
	}
	s.queue.Push(t)
	s.noteDepth(-1)
}

// queuedLen is the sender's total queued depth across partitions, the
// Queued field of scheduler PeerViews.
func (s *sender) queuedLen() int {
	n := s.queue.Len()
	for _, p := range s.parts {
		n += p.Len()
	}
	return n
}

// refill tops the send queue up to the generator's watermark of fresh
// buffers, so lazily produced buffers interleave with resubmitted ones
// under demand.
func (s *sender) refill(now sim.Time) {
	g := s.gen
	if g == nil {
		return
	}
	for g.next < g.count && len(g.fresh) < g.watermark {
		t := g.make(g.instance, g.next)
		g.next++
		s.inst.rt.prep(t, now)
		g.fresh[t.ID] = true
		s.push(t) // respects labeled-stream partitioning
	}
}

// popFor pops the best buffer for the requesting device class (and, on
// labeled streams, the requesting instance's partition), maintaining the
// generator's fresh-buffer accounting.
func (s *sender) popFor(req *fetch) *task.Task {
	q, pi := s.queue, -1
	if s.parts != nil {
		pi = req.fromInst % len(s.parts)
		q = s.parts[pi]
	}
	var t *task.Task
	if sch := s.inst.f.out.pol.Sched; sch != nil {
		// Pluggable scheduler: rank the queue by the consumer-specific
		// score instead of the ordering's per-kind selection.
		c := policy.Consumer{Kind: req.kind, Node: req.from.ID, Instance: req.fromInst}
		t = q.PopRanked(func(t *task.Task) float64 { return sch.Score(t, c) })
	} else {
		t = q.PopFor(req.kind)
	}
	if t != nil {
		if s.gen != nil {
			delete(s.gen.fresh, t.ID)
		}
		s.noteDepth(pi)
	}
	return t
}

// answer serves one data request: refill the queue (lazy sources), select
// the buffer with DBSA when the queue is sorted (FIFO otherwise), and build
// the reply — a data buffer, an empty NACK, or EOF once the job completed.
// It is the serial, non-blocking half of ThreadBufferSender: it mutates the
// SendQueue, so the serve loop calls it for one request at a time.
func (s *sender) answer(now sim.Time, req *fetch) reply {
	s.refill(now)
	if t := s.popFor(req); t != nil {
		s.inst.f.out.stats.sent++
		s.noteSend(req.fromInst, t.ID, t.Size, false)
		return reply{t: t}
	}
	if s.inst.rt.track.done.Fired() {
		return reply{eof: true}
	}
	return reply{}
}

// wireSize is the number of bytes a reply occupies on the network: the data
// buffer's size, or one control message for NACK/EOF.
func (rep reply) wireSize() int64 {
	if rep.t != nil {
		return rep.t.Size
	}
	return ctrlMsgBytes
}

// runStep is ThreadBufferSender: serve data requests, selecting the buffer
// with DBSA when the queue is sorted, FIFO otherwise. Buffer selection is
// serial (it mutates the SendQueue); each reply transmission is spawned as
// its own step chain on the round's fetch record (NIC serialization, then
// the reply hand-off), so a bulk transfer to one consumer does not
// head-of-line block every other consumer's request — the NIC model still
// serializes the actual bytes, segment-interleaved. Requests already queued
// are drained inline without yielding; waiting for the next one arms a
// continuation on the request channel.
func (s *sender) runStep(e *sim.Env) sim.Cont {
	for {
		f, ok := s.reqCh.TryGet()
		if !ok {
			if s.reqCh.Closed() {
				return sim.Done()
			}
			return s.reqCh.GetThen(e, s.onRequest)
		}
		s.serve(e, f)
	}
}

// gotRequest resumes the serve loop with a request that arrived while it
// waited.
func (s *sender) gotRequest(e *sim.Env, f *fetch, ok bool) sim.Cont {
	if !ok {
		return sim.Done()
	}
	s.serve(e, f)
	return s.runStep(e)
}

// serve answers one request and spawns the round's reply transmission.
func (s *sender) serve(e *sim.Env, f *fetch) {
	f.rep = s.answer(e.Now(), f)
	e.SpawnStep("send", f.transmitStep)
}

// transmit ships the reply back over the network (sender side).
func (f *fetch) transmit(se *sim.Env) sim.Cont {
	return f.l.rt.Cluster.Net.SendThen(se, f.snd.inst.node, f.from, f.rep.wireSize(), f.deliverStep)
}

// deliver hands the transmitted reply into the requester's reply channel.
// The sender is done with the record once the put returns.
func (f *fetch) deliver(se *sim.Env) sim.Cont {
	rep := f.rep
	f.rep = reply{}
	return f.reply.PutThen(se, rep, sim.DoneStep)
}

// runPush implements the push-based stream the paper excludes: drain the
// send queue FIFO and ship every buffer to the next consumer instance in
// rotation, regardless of downstream demand or suitability.
func (s *sender) runPush(e *sim.Env) {
	rt := s.inst.rt
	stream := s.inst.f.out
	consumers := stream.to.instances
	// Index of this stream among the consumer's inputs.
	qi := 0
	for i, in := range stream.to.in {
		if in == stream {
			qi = i
		}
	}
	rr := s.inst.idx % len(consumers)
	// A scheduler that implements DestPicker steers the push rotation.
	var dp policy.DestPicker
	if sch := stream.pol.Sched; sch != nil {
		dp, _ = sch.(policy.DestPicker)
	}
	pushView := func(i int) policy.PeerView {
		ci := consumers[i]
		return policy.PeerView{Node: ci.node.ID, Dead: ci.dead, Queued: ci.inputs[qi].queue.Len()}
	}
	backoff := minBackoff
	for !rt.track.done.Fired() && !s.inst.dead {
		s.refill(e.Now())
		t := s.queue.PopFor(hw.CPU) // FIFO pop: kind is irrelevant
		if t != nil {
			if s.gen != nil {
				delete(s.gen.fresh, t.ID)
			}
			s.noteDepth(-1)
		}
		if t == nil {
			e.Sleep(backoff)
			if backoff < maxBackoff {
				backoff *= 2
			}
			continue
		}
		backoff = minBackoff
		if dp != nil {
			if i := dp.PickDest(t, len(consumers), pushView, rr); i >= 0 {
				rr = i
			}
		}
		// Skip crashed consumers in the rotation; fault.Apply guarantees at
		// least one transparent copy survives.
		dst := consumers[rr%len(consumers)]
		for scan := 0; dst.dead; scan++ {
			if scan == len(consumers) {
				panic("core: push stream has no live consumer")
			}
			rr++
			dst = consumers[rr%len(consumers)]
		}
		rr++
		// The send is noted at transfer start — symmetric with the demand
		// path, where noteSend fires when the buffer is popped — so the
		// Send→Deliver window brackets the network transfer. A transfer
		// whose destination dies mid-flight counts as a (re-)send.
		stream.stats.sent++
		s.noteSend(dst.idx, t.ID, t.Size, true)
		rt.Cluster.Net.Send(e, s.inst.node, dst.node, t.Size)
		if dst.dead {
			// Crashed while the buffer was on the wire: reclaim it into our
			// own send queue (the sender's retransmit buffer) for re-send.
			stream.stats.reenqueued++
			s.push(t)
			continue
		}
		dst.inputs[qi].queue.Push(t)
		stream.stats.delivered++
		dst.noteDeliver(qi, t, true)
		dst.noteInputDepth(qi)
		dst.taskAvail.NotifyAll()
	}
}

// inputStream is the receiver side of one stream at one instance: the
// shared StreamOutQueue, viewed FIFO or sorted-by-speedup per device class.
type inputStream struct {
	s     *Stream
	queue *policy.Queue
}

// reqState is the per-worker, per-input-stream request bookkeeping of
// Algorithms 2 and 3: how many buffers this worker currently has queued,
// what its target is (static, or DQAA-controlled), and the last observed
// request latency.
type reqState struct {
	requestSize int
	static      int
	dqaa        *policy.DQAA
	lastLatency sim.Time
	haveLatency bool
	rrSender    int
}

func (st *reqState) target() int {
	if st.dqaa != nil {
		return st.dqaa.Target()
	}
	return st.static
}

// targetFor is the worker-aware request target: a GPU worker running the
// asynchronous transfer pipeline needs at least concurrentEvents+1 buffers
// in flight for copies to overlap kernels at all — DQAA's latency/process
// ratio systematically underestimates the demand of a pipelined processor,
// so the controller's concurrency sets the floor and DQAA adapts above it.
func (w *worker) targetFor(st *reqState) int {
	t := st.target()
	if w.inst.rt.tun.NoPipelineDemandFloor {
		return t
	}
	if st.dqaa != nil && w.ctrl != nil && w.exec != nil && w.exec.Async {
		if c := w.ctrl.Concurrent() + 1; c > t {
			t = c
		}
	}
	return t
}

// worker is one event-handler thread bound to one device.
type worker struct {
	inst      *Instance
	kind      hw.Kind
	dev       *hw.Device
	exec      *xfer.Executor   // GPU workers only
	ctrl      *xfer.Controller // GPU workers only (async mode)
	tid       int
	reqStates []*reqState // one per input stream
	// Proc names, precomputed at construction: name() is on the demand-hook
	// hot path and the fetch/requester names are used once per spawned
	// process, so formatting them per call would allocate per message.
	procName  string
	fetchName string
	reqNames  []string // one per input stream
}

func (w *worker) name() string { return w.procName }

// Instance is one transparent copy of a filter on a node.
type Instance struct {
	rt        *Runtime
	f         *Filter
	idx       int
	node      *hw.Node
	inputs    []*inputStream
	out       *sender
	workers   []*worker
	rrQueue   int
	resubRR   int
	resubFree []*resub // pooled resubmission records
	reclaimRR int
	dead      bool      // fail-stop crashed (fault injection)
	diedAt    sim.Time  // crash time, for reports
	taskAvail *sim.Cond // workers wait here for queued events
	demand    *sim.Cond // requesters wait here for demand headroom
	// fetcher maps a queued task to the request bookkeeping of the worker
	// whose ThreadRequester fetched it. Buffers in the shared
	// StreamOutQueue are fungible — any worker may pop any buffer — but
	// requestsize(tid) counts buffers *assigned to* tid (Algorithm 2), so
	// a pop must decrement the fetcher's counter, whoever consumes it.
	fetcher map[uint64]*reqState
}

// Node returns the node hosting this instance.
func (inst *Instance) Node() *hw.Node { return inst.node }

// Dead reports whether the instance has been crashed by fault injection.
func (inst *Instance) Dead() bool { return inst.dead }

// Workers returns the instance's workers' device kinds, for tests.
func (inst *Instance) WorkerKinds() []hw.Kind {
	out := make([]hw.Kind, len(inst.workers))
	for i, w := range inst.workers {
		out[i] = w.kind
	}
	return out
}

func newInstance(rt *Runtime, f *Filter, idx int, node *hw.Node) *Instance {
	inst := &Instance{rt: rt, f: f, idx: idx, node: node, fetcher: make(map[uint64]*reqState)}
	inst.taskAvail = sim.NewCond(rt.K)
	inst.demand = sim.NewCond(rt.K)
	if f.out != nil {
		inst.out = &sender{
			inst:  inst,
			name:  fmt.Sprintf("%s/%d/sender", f.Name(), idx),
			queue: policy.NewQueue(f.out.pol.Sender),
			reqCh: sim.NewChan[*fetch](rt.K, 1024),
		}
		inst.out.onRequest = inst.out.gotRequest
		if f.out.labelFn != nil {
			inst.out.parts = make([]*policy.Queue, len(f.out.to.spec.Placement))
			for i := range inst.out.parts {
				inst.out.parts[i] = policy.NewQueue(f.out.pol.Sender)
			}
		}
	}
	for _, s := range f.in {
		inst.inputs = append(inst.inputs, &inputStream{
			s:     s,
			queue: policy.NewQueue(s.pol.Receiver),
		})
	}
	if f.spec.Handler != nil {
		inst.buildWorkers()
	}
	return inst
}

// buildWorkers creates one worker per device following the paper's testbed
// convention: a GPU worker consumes one CPU core as its manager; remaining
// cores become CPU workers (bounded by CPUWorkers).
func (inst *Instance) buildWorkers() {
	spec := inst.f.spec
	tid := 0
	cpuOffset := 0
	if spec.UseGPU && inst.node.HasGPU() {
		ng := spec.GPUWorkers
		if ng < 1 {
			ng = 1
		}
		if ng > len(inst.node.CPUs) {
			ng = len(inst.node.CPUs) // each GPU worker needs a manager core
		}
		for g := 0; g < ng; g++ {
			w := &worker{
				inst: inst, kind: hw.GPU, dev: inst.node.GPU, tid: tid,
				exec: xfer.NewExecutor(inst.node.GPU, inst.node.Link, spec.AsyncCopy),
				ctrl: xfer.NewController(spec.MaxConcurrentCopies),
			}
			if hook := inst.rt.Hooks.Span; hook != nil {
				w := w
				w.exec.OnSpan = func(sp xfer.Span) {
					hook(SpanRecord{
						Filter:   w.inst.f.Name(),
						Instance: w.inst.idx,
						Worker:   w.name(),
						NodeID:   w.inst.node.ID,
						Kind:     sp.Kind,
						Start:    sp.Start,
						End:      sp.End,
						Bytes:    sp.Bytes,
						TaskID:   sp.Task,
					})
				}
			}
			inst.workers = append(inst.workers, w)
			tid++
		}
		cpuOffset = ng // one manager core per GPU worker
	}
	avail := len(inst.node.CPUs) - cpuOffset
	n := spec.CPUWorkers
	if n < 0 || n > avail {
		n = avail
	}
	for i := 0; i < n; i++ {
		w := &worker{
			inst: inst, kind: hw.CPU, dev: inst.node.CPUs[cpuOffset+i], tid: tid,
		}
		inst.workers = append(inst.workers, w)
		tid++
	}
	if len(inst.workers) == 0 {
		panic(fmt.Sprintf("core: filter %q instance on %s has no usable devices",
			inst.f.Name(), inst.node.Name()))
	}
	for _, w := range inst.workers {
		w.procName = fmt.Sprintf("%s/%d/%s%d", inst.f.Name(), inst.idx, w.kind, w.tid)
		w.fetchName = w.procName + "/fetch"
		for qi, is := range inst.inputs {
			st := &reqState{static: is.s.pol.RequestSize}
			if is.s.pol.Dynamic {
				st.dqaa = policy.NewDQAATuned(inst.rt.tun.DQAAFloor, 0)
			}
			w.reqStates = append(w.reqStates, st)
			w.reqNames = append(w.reqNames, fmt.Sprintf("%s/req%d", w.procName, qi))
		}
	}
}

// start spawns the instance's processes. The per-message ones — the
// demand-driven sender's serve loop and each requester's issue loop — are
// stackless step chains. Worker main loops and push-mode senders are
// long-lived, genuinely stackful processes and run as coroutines.
func (inst *Instance) start() {
	if s := inst.out; s != nil {
		if inst.f.out.pol.Push {
			inst.rt.K.Spawn(s.name, s.runPush)
		} else {
			inst.rt.K.SpawnStep(s.name, s.runStep)
		}
	}
	for _, w := range inst.workers {
		inst.rt.K.Spawn(w.name(), w.run)
		for qi, in := range inst.inputs {
			if in.s.pol.Push {
				continue // push streams have no demand side
			}
			inst.rt.K.SpawnStep(w.reqNames[qi], w.newReqLoop(qi).loopStep)
		}
	}
}

// wakeAll unblocks workers and requesters so they can observe completion.
func (inst *Instance) wakeAll() {
	inst.taskAvail.NotifyAll()
	inst.demand.NotifyAll()
}

// tryPop removes the best event for the worker's device from the input
// queues, selecting the queue round-robin as the Event Scheduler does. The
// returned reqState is the *popping* worker's bookkeeping for the stream
// the event came from (used for its DQAA update); the fetching worker's
// requestsize is decremented internally. The last result is the input-queue
// index the event came from, so the crash-recovery path can credit the
// right stream when a dead worker's in-service event is reclaimed.
func (w *worker) tryPop() (*task.Task, *reqState, int) {
	inst := w.inst
	n := len(inst.inputs)
	for i := 0; i < n; i++ {
		qi := (inst.rrQueue + i) % n
		if t := w.popInput(qi); t != nil {
			inst.rrQueue = (qi + 1) % n
			inst.noteInputDepth(qi)
			if fs, ok := inst.fetcher[t.ID]; ok {
				delete(inst.fetcher, t.ID)
				fs.requestSize--
				inst.demand.NotifyAll()
			}
			return t, w.reqStates[qi], qi
		}
	}
	return nil, nil, -1
}

// consumer is the worker's identity for pluggable-scheduler decisions.
func (w *worker) consumer() policy.Consumer {
	return policy.Consumer{Kind: w.kind, Node: w.inst.node.ID, Instance: w.inst.idx}
}

// popInput pops the best event for the worker from input queue qi — via
// the stream's pluggable scheduler when one is installed, via the
// ordering's per-kind selection otherwise. Scheduler pops are reported to
// PopObserver implementations (the moment a device commits to a buffer).
func (w *worker) popInput(qi int) *task.Task {
	in := w.inst.inputs[qi]
	sch := in.s.pol.Sched
	if sch == nil {
		return in.queue.PopFor(w.kind)
	}
	c := w.consumer()
	t := in.queue.PopRanked(func(t *task.Task) float64 { return sch.Score(t, c) })
	if t != nil {
		if o, ok := sch.(policy.PopObserver); ok {
			o.ObservePop(c, t)
		}
	}
	return t
}

// noteService reports a completed buffer's service time to the stream's
// scheduler, if it learns from observed work (ServiceObserver).
func (w *worker) noteService(qi int, t *task.Task, dur sim.Time) {
	if qi < 0 {
		return
	}
	if sch := w.inst.inputs[qi].s.pol.Sched; sch != nil {
		if o, ok := sch.(policy.ServiceObserver); ok {
			o.ObserveService(w.consumer(), t, dur)
		}
	}
}

// pop blocks until an event is available or the job completes (nil).
func (w *worker) pop(e *sim.Env) (*task.Task, *reqState, int) {
	for {
		if w.inst.dead {
			return nil, nil, -1
		}
		if t, st, qi := w.tryPop(); t != nil {
			return t, st, qi
		}
		if w.inst.rt.track.done.Fired() {
			return nil, nil, -1
		}
		w.inst.taskAvail.Wait(e)
	}
}

// batchAffinityRatio bounds how much less suited a queued event may be than
// the batch's first event and still be pulled into the same GPU pipeline
// batch. An idle GPU will still take a strongly CPU-suited event — that is
// the demand-driven load balancing — but one at a time, via the blocking
// first pop, not as batch filler: greedily draining another device's
// prefetched events would starve it (and with DQAA-sized queues of depth
// ~1, permanently poison it with the other class's work).
const batchAffinityRatio = 0.5

// tryPopAtLeast pops the best event for the worker whose relative-advantage
// key is at least minKey, or nil.
func (w *worker) tryPopAtLeast(minKey float64) (*task.Task, *reqState, int) {
	inst := w.inst
	n := len(inst.inputs)
	for i := 0; i < n; i++ {
		qi := (inst.rrQueue + i) % n
		q := inst.inputs[qi].queue
		if sch := inst.inputs[qi].s.pol.Sched; sch != nil {
			c := w.consumer()
			sc, ok := q.PeekRanked(func(t *task.Task) float64 { return sch.Score(t, c) })
			if !ok || sc < minKey {
				continue
			}
		} else if key, ok := q.PeekKeyFor(w.kind); !ok || key < minKey {
			continue
		}
		if t := w.popInput(qi); t != nil {
			inst.rrQueue = (qi + 1) % n
			inst.noteInputDepth(qi)
			if fs, ok := inst.fetcher[t.ID]; ok {
				delete(inst.fetcher, t.ID)
				fs.requestSize--
				inst.demand.NotifyAll()
			}
			return t, w.reqStates[qi], qi
		}
	}
	return nil, nil, -1
}

// popBatch collects up to n events, blocking only for the first. Extension
// events must have comparable affinity to the first one.
func (w *worker) popBatch(e *sim.Env, n int) ([]*task.Task, []*reqState, []int) {
	t, st, qi := w.pop(e)
	if t == nil {
		return nil, nil, nil
	}
	batch := []*task.Task{t}
	states := []*reqState{st}
	qis := []int{qi}
	ratio := w.inst.rt.tun.BatchAffinityRatio
	minKey := t.Key[w.kind] * ratio
	if sch := w.inst.inputs[qi].s.pol.Sched; sch != nil {
		// Scheduler streams gate batch filler on the scheduler's own
		// score scale, so partition bonuses and the like carry over.
		minKey = sch.Score(t, w.consumer()) * ratio
	}
	if ratio < 0 {
		minKey = -1 // any key qualifies: greedy draining (ablation)
	}
	for len(batch) < n {
		t, st, qi := w.tryPopAtLeast(minKey)
		if t == nil {
			break
		}
		batch = append(batch, t)
		states = append(states, st)
		qis = append(qis, qi)
	}
	return batch, states, qis
}

// run is the worker's main loop (ThreadWorker in Algorithm 2). GPU workers
// in asynchronous mode batch events through the transfer pipeline, with the
// batch size driven by Algorithm 1's controller.
func (w *worker) run(e *sim.Env) {
	// Every field of the handler context is fixed for the worker's
	// lifetime, so one context serves all of its handler calls.
	ctx := &Ctx{
		Env:      e,
		Runtime:  w.inst.rt,
		Filter:   w.inst.f.Name(),
		Node:     w.inst.node,
		Kind:     w.kind,
		Instance: w.inst.idx,
	}
	for {
		if w.kind == hw.GPU && w.exec.Async {
			batch, states, qis := w.popBatch(e, w.ctrl.Concurrent())
			if batch == nil {
				return
			}
			start := e.Now()
			dur := w.exec.RunBatch(e, batch)
			if w.inst.dead {
				// Fail-stop mid-service: the batch's work is lost and its
				// events are reclaimed upstream for reprocessing.
				for i, t := range batch {
					w.abortReclaim(qis[i], t)
				}
				return
			}
			perEvent := dur / sim.Time(len(batch))
			for i, t := range batch {
				w.afterProcess(e, states[i], perEvent)
				w.noteService(qis[i], t, perEvent)
				w.finish(ctx, t, start)
			}
			if dur > 0 {
				before := w.ctrl.Concurrent()
				w.ctrl.Observe(float64(len(batch)) / float64(dur))
				if w.ctrl.Concurrent() > before {
					w.inst.demand.NotifyAll()
				}
			}
		} else {
			t, st, qi := w.pop(e)
			if t == nil {
				return
			}
			start := e.Now()
			if w.kind == hw.GPU {
				w.exec.RunBatch(e, []*task.Task{t})
			} else {
				w.dev.Run(e, t.Cost(w.kind))
			}
			if w.inst.dead {
				w.abortReclaim(qi, t)
				return
			}
			dur := e.Now() - start
			w.afterProcess(e, st, dur)
			w.noteService(qi, t, dur)
			w.finish(ctx, t, start)
		}
	}
}

// afterProcess feeds DQAA with the measured processing time (Algorithm 2's
// targetlength update) and wakes requesters if the target grew.
func (w *worker) afterProcess(e *sim.Env, st *reqState, timeToProcess sim.Time) {
	if st == nil || st.dqaa == nil || !st.haveLatency {
		return
	}
	old := st.dqaa.Target()
	nt := st.dqaa.Observe(st.lastLatency, timeToProcess)
	if nt != old {
		if h := w.inst.rt.Hooks.Target; h != nil {
			h(TargetRecord{
				Filter:   w.inst.f.Name(),
				Instance: w.inst.idx,
				Worker:   w.name(),
				At:       e.Now(),
				Target:   nt,
			})
		}
		if nt > old {
			w.inst.demand.NotifyAll()
		}
	}
}

// finish runs the application handler and applies its action.
func (w *worker) finish(ctx *Ctx, t *task.Task, start sim.Time) {
	rt, e := w.inst.rt, ctx.Env
	act := w.inst.f.spec.Handler(ctx, t)
	now := e.Now()
	for _, o := range act.Forward {
		if w.inst.out == nil {
			panic(fmt.Sprintf("core: filter %q forwards but has no output stream", w.inst.f.Name()))
		}
		rt.prep(o, now)
		o.Parent = t.ID
		w.inst.out.push(o)
	}
	for _, o := range act.Resubmit {
		rt.prep(o, now)
		o.Parent = t.ID
		w.inst.resubmit(e, o)
	}
	// Account new lineages before retiring the input's, so the tracker
	// can never dip to zero while work is still in flight.
	if created := len(act.Forward) + len(act.Resubmit); created > 0 {
		rt.track.adjust(now, int64(created))
	}
	rt.track.adjust(now, -1)
	if h := rt.Hooks.Process; h != nil {
		h(ProcRecord{
			TaskID:   t.ID,
			Parent:   t.Parent,
			Filter:   w.inst.f.Name(),
			Instance: w.inst.idx,
			NodeID:   w.inst.node.ID,
			Kind:     w.kind,
			Start:    start,
			End:      now,
			Params:   t.Params,
			Payload:  t.Payload,
		})
	}
}

// resubmit routes a buffer back to the *root* source filter of this
// filter's upstream chain (an instance chosen round-robin), paying one
// control message of network time. Walking to the root makes resubmitted
// work re-traverse every intermediate processing stage — NBIA's
// recalculated tiles go back through color conversion even when the
// pipeline is not fused.
func (inst *Instance) resubmit(e *sim.Env, o *task.Task) {
	if len(inst.inputs) == 0 {
		panic(fmt.Sprintf("core: filter %q resubmits but has no input stream", inst.f.Name()))
	}
	src := inst.inputs[0].s.from
	for len(src.in) > 0 {
		src = src.in[0].from
	}
	var r *resub
	if n := len(inst.resubFree); n > 0 {
		r = inst.resubFree[n-1]
		inst.resubFree[n-1] = nil
		inst.resubFree = inst.resubFree[:n-1]
	} else {
		r = &resub{inst: inst}
		r.sendStep, r.landStep = r.send, r.land
	}
	r.tgt, r.t = src.instances[inst.resubRR%len(src.instances)], o
	inst.resubRR++
	e.SpawnStep("resubmit", r.sendStep)
}

// resub is one resubmission in flight: the control message to the root
// source instance, then the push into its send queue. Records are pooled
// per resubmitting Instance and their steps bound once, like fetch
// records, so a resubmission allocates nothing in steady state.
type resub struct {
	inst               *Instance // the resubmitting instance; owns the pool
	tgt                *Instance
	t                  *task.Task
	sendStep, landStep sim.Step
}

func (r *resub) send(ce *sim.Env) sim.Cont {
	return r.inst.rt.Cluster.Net.SendThen(ce, r.inst.node, r.tgt.node, ctrlMsgBytes, r.landStep)
}

// land queues the buffer at the target and returns the record to its pool.
func (r *resub) land(*sim.Env) sim.Cont {
	r.tgt.out.push(r.t)
	r.tgt, r.t = nil, nil
	r.inst.resubFree = append(r.inst.resubFree, r)
	return sim.Done()
}

// reqLoop is the state of one ThreadRequester (Algorithm 3): one worker's
// demand loop for one input stream, keeping requestSize — buffers *being
// transferred plus received and queued*, as the paper defines it — topped
// up to the target by demanding buffers from upstream instances,
// round-robin. Requests are pipelined: several may be outstanding at once,
// up to the target, which is what lets a consumer of large buffers overlap
// their network transfers. An upstream instance with nothing to send
// answers with an empty message; after a full empty cycle the requester
// backs off briefly before issuing more.
type reqLoop struct {
	w           *worker
	inst        *Instance
	rt          *Runtime
	qi          int
	st          *reqState
	stream      *Stream
	senders     []*sender
	backoff     sim.Time
	emptyStreak int
	eof         bool

	// The issue loop and the backoff timer's continuation, bound once, and
	// the pool of finished fetch records.
	loopStep, backoffStep sim.Step
	free                  []*fetch
}

// newReqLoop builds the worker's ThreadRequester for input stream qi; its
// loopStep is the process body. Every filter has at least one instance, so
// the stream has at least one upstream sender.
func (w *worker) newReqLoop(qi int) *reqLoop {
	inst := w.inst
	st := w.reqStates[qi]
	stream := inst.inputs[qi].s
	senders := make([]*sender, 0, len(stream.from.instances))
	for _, si := range stream.from.instances {
		senders = append(senders, si.out)
	}
	// Spread initial round-robin positions across consumers.
	st.rrSender = inst.idx % len(senders)
	l := &reqLoop{
		w: w, inst: inst, rt: inst.rt, qi: qi,
		st: st, stream: stream, senders: senders, backoff: minBackoff,
	}
	l.loopStep, l.backoffStep = l.loop, l.backedOff
	return l
}

// pick selects the next upstream sender — round-robin by default, or by
// the stream scheduler's PickSender when one is installed. Crashed
// producers are skipped like producers with no data: nil return, empty
// streak bumped.
func (l *reqLoop) pick() *sender {
	idx := l.st.rrSender % len(l.senders)
	if sch := l.stream.pol.Sched; sch != nil {
		if i := sch.PickSender(l.w.consumer(), len(l.senders), l.senderView, l.st.rrSender); i >= 0 {
			idx = i % len(l.senders)
		}
	}
	snd := l.senders[idx]
	l.st.rrSender++
	if snd.inst.dead {
		l.emptyStreak++
		return nil
	}
	return snd
}

// senderView is the PeerView adapter PickSender observes senders through.
func (l *reqLoop) senderView(i int) policy.PeerView {
	s := l.senders[i]
	return policy.PeerView{Node: s.inst.node.ID, Dead: s.inst.dead, Queued: s.queuedLen()}
}

// startFetch takes a pooled record (or a new one, with its own reply
// channel) for a round demanding from snd that runs next once settled. The
// round starts when the record's demand step runs.
func (l *reqLoop) startFetch(snd *sender, next sim.Step) *fetch {
	var f *fetch
	if n := len(l.free); n > 0 {
		f = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		f = &fetch{
			l: l, kind: l.w.kind, from: l.inst.node, fromInst: l.inst.idx,
			reply: sim.NewChan[reply](l.rt.K, 1),
		}
		f.demandStep, f.handoffStep, f.awaitStep = f.demand, f.handoff, f.await
		f.transmitStep, f.deliverStep, f.settleStep = f.transmit, f.deliver, f.settled
	}
	f.snd, f.next = snd, next
	return f
}

// demand opens the round: the demand message goes on the wire, then
// handoff passes the request to the sender, await waits for the reply and
// settled applies it — one step per blocking point.
func (f *fetch) demand(fe *sim.Env) sim.Cont {
	f.t0 = fe.Now()
	return f.l.rt.Cluster.Net.SendThen(fe, f.from, f.snd.inst.node, ctrlMsgBytes, f.handoffStep)
}

func (f *fetch) handoff(fe *sim.Env) sim.Cont {
	return f.snd.reqCh.PutThen(fe, f, f.awaitStep)
}

func (f *fetch) await(fe *sim.Env) sim.Cont {
	return f.reply.GetThen(fe, f.settleStep)
}

// settled applies the round's reply to the requester's bookkeeping — the
// receive half of Algorithm 3 — and returns the record to the requester's
// pool: the sender let go of it when its reply put returned, and the reply
// channel is empty again.
func (f *fetch) settled(fe *sim.Env, rep reply, ok bool) sim.Cont {
	l, next := f.l, f.next
	w, st, inst, qi := l.w, l.st, l.inst, l.qi
	switch {
	case !ok || rep.eof:
		l.eof = true
		st.requestSize--
		w.noteDemand(fe.Now(), qi, DemandEOF, st.requestSize)
	case rep.t != nil && inst.dead:
		// We crashed while the buffer was in flight: hand it back to
		// a surviving upstream sender for redelivery elsewhere.
		l.stream.stats.reenqueued++
		inst.liveUpstream(qi).out.push(rep.t)
		st.requestSize--
	case rep.t != nil:
		st.lastLatency = fe.Now() - f.t0
		st.haveLatency = true
		inst.fetcher[rep.t.ID] = st
		inst.inputs[qi].queue.Push(rep.t)
		l.stream.stats.delivered++
		inst.noteDeliver(qi, rep.t, false)
		w.noteDemand(fe.Now(), qi, DemandData, st.requestSize)
		inst.noteInputDepth(qi)
		inst.taskAvail.NotifyAll()
		l.backoff = minBackoff
		l.emptyStreak = 0
	default: // empty reply: nothing in transit after all
		st.requestSize--
		l.emptyStreak++
		w.noteDemand(fe.Now(), qi, DemandEmpty, st.requestSize)
	}
	inst.demand.NotifyAll() // let the issuing loop reassess
	f.snd, f.next = nil, nil
	l.free = append(l.free, f)
	return next(fe)
}

// loop is one pass of the issue loop. Every blocking point arms a
// continuation — demand headroom (condition wait), empty-cycle backoff
// (timer), and the fetch protocol (a chain over demand send, request
// hand-off and reply wait); non-blocking transitions — dead producers, loop
// re-checks — stay inside the for. The backoff is doubled *after* the
// timer fires (backedOff), because an in-flight fetch that lands data
// mid-backoff resets it to the minimum.
func (l *reqLoop) loop(e *sim.Env) sim.Cont {
	w, st, inst, rt := l.w, l.st, l.inst, l.rt
	for !rt.track.done.Fired() && !l.eof && !inst.dead {
		if st.requestSize >= w.targetFor(st) {
			return inst.demand.WaitThen(e, l.loopStep)
		}
		if l.emptyStreak >= len(l.senders) {
			l.emptyStreak = 0
			return sim.After(l.backoff, l.backoffStep)
		}
		snd := l.pick()
		if snd == nil {
			continue
		}
		st.requestSize++ // in transit counts toward the target
		w.noteDemand(e.Now(), l.qi, DemandIssued, st.requestSize)
		if rt.tun.SerialRequester {
			// Ablation: the fetch chains on this process itself, then
			// resumes the loop — the literal synchronous Algorithm 3.
			return l.startFetch(snd, l.loopStep).demand(e)
		}
		e.SpawnStep(w.fetchName, l.startFetch(snd, sim.DoneStep).demandStep)
		// After(0) is the step-world Yield: the just-spawned fetch runs
		// (deterministically) before the next issue decision.
		return sim.After(0, l.loopStep)
	}
	return sim.Done()
}

// backedOff resumes the issue loop when the empty-cycle backoff expires.
func (l *reqLoop) backedOff(e *sim.Env) sim.Cont {
	if l.backoff < maxBackoff {
		l.backoff *= 2
	}
	return l.loop(e)
}
