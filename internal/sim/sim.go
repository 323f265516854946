// Package sim provides a deterministic, virtual-time discrete-event
// simulation kernel in the style of SimPy.
//
// The kernel is continuation-based: a single event loop owns virtual time
// and dispatches resumable processes directly, with no per-event channel
// rendezvous and no goroutine parking through the Go scheduler. Processes
// come in two flavours that interoperate freely on the same kernel and the
// same wait queues:
//
//   - Blocking processes (Spawn) are ordinary functions with signature
//     func(*Env) that call Sleep, Chan.Put/Get, Resource.Acquire and the
//     other blocking primitives. They run on runtime coroutines (iter.Pull):
//     a blocking call suspends the process with a direct stack switch and
//     the event loop resumes it the same way. This keeps the classic
//     SimPy-style API source-compatible while costing a fraction of the
//     goroutine/channel hand-off it replaces.
//
//   - Continuation processes (SpawnStep) are explicit state machines: a
//     Step function runs without blocking and returns a Cont directive
//     (Done, After, Blocked) naming the next step. The event loop invokes
//     steps inline — a dispatch is a queue pop plus a function call — so
//     hot-path processes pay no stack switch at all. The *Then variants of
//     the synchronization primitives (Chan.GetThen, Resource.AcquireThen,
//     ...) arm the continuation and share FIFO wait queues with blocking
//     callers, so wakeup ordering is identical across flavours.
//
// Determinism is unchanged from the goroutine kernel this replaced (kept as
// the differential oracle in internal/sim/oracle): exactly one process runs
// at any instant, same-timestamp events dispatch in schedule order, and a
// fixed seed yields an identical execution regardless of GOMAXPROCS. The
// kernel runs until no scheduled events remain (or an explicit horizon is
// reached); processes still blocked at that point are killed cleanly — in
// spawn order, unwinding blocking processes' defers — so no coroutine
// outlives Run.
//
// The event loop is the hot path of every experiment sweep, so it avoids
// allocation and heap traffic. Pending wakeups live in two queues: future
// instants in a concrete typed binary heap ordered by (time, seq), with no
// container/heap interface boxing, and the current instant in a FIFO lane —
// a plain slice, since most wakeups (channel hand-offs, resource grants,
// notifies, After(0)) land at the instant that schedules them: 59-64% of
// all schedule calls on the three workloads of the repository benchmark
// (perfbench). The loop dispatches heap events at the current instant
// before the lane, which is exactly (time, seq) order: a heap event at now
// was pushed while the clock was still earlier, so its seq is lower than
// any lane entry's. Completed process records (and, for blocking
// processes, their coroutines) are pooled for reuse by later Spawns,
// channels pool their getter records, and a zero-duration Sleep or After
// returns immediately when neither queue holds another wakeup at the
// current instant.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
)

// Time is a point in virtual time, in seconds. Durations are also expressed
// as Time; the zero value is the simulation epoch.
type Time float64

// Seconds returns t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Milliseconds returns t as a float64 number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) * 1e3 }

// Microsecond, Millisecond and Second are convenience duration units.
const (
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateParked
	stateDone
	// statePooled marks a finished process whose record (and coroutine, for
	// blocking processes) is parked in the kernel's free list, awaiting
	// reuse by a future Spawn.
	statePooled
)

// proc is the kernel-side record of one simulated process. Records are
// reused across process lifetimes (see Kernel.freeCoro/freeStep), so every
// mutable field is reset by Spawn/SpawnStep.
type proc struct {
	id     int
	name   string
	state  procState
	killed bool
	env    Env

	// Blocking (coroutine) processes only. resume switches into the
	// coroutine; yield (captured by the coroutine body on first entry)
	// switches back out. fn is the current incarnation's body.
	fn     func(*Env)
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// Continuation processes only: the next step to run when dispatched.
	// Blocking primitives' *Then variants re-point this at the armed
	// continuation while the process waits.
	step Step
}

// killSentinel is the panic value used to unwind killed blocking processes.
type killSentinel struct{}

// procPanic wraps a panic raised inside a simulated process so the kernel
// can report which process failed.
type procPanic struct {
	name  string
	value any
}

func (p procPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", p.name, p.value)
}

// wakeup is one pending resumption of a process. id is the proc
// incarnation the wakeup belongs to. Process records are pooled and reused
// (with a fresh id per Spawn), so a wakeup is stale — and must be dropped —
// unless the record still runs the same incarnation.
type wakeup struct {
	proc *proc
	id   int
}

// event is a wakeup at a future instant, ordered by (at, seq).
type event struct {
	at  Time
	seq uint64
	wakeup
}

// eventHeap is a binary min-heap ordered by (at, seq). It is a concrete
// implementation rather than a container/heap adapter so Push/Pop move
// event values directly, with no interface boxing and no per-event
// allocation. Sifting moves a hole instead of swapping, so each level
// costs one event copy. (A 4-ary variant measured no faster on the
// scale_ddwrr benchmark and slower on the sim.ns_per_event ladder.)
type eventHeap []event

// before reports whether event a must pop before event b.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (h eventHeap) down(i int) {
	n := len(h)
	e := h[i]
	for {
		min := 2*i + 1
		if min >= n {
			break
		}
		if r := min + 1; r < n && before(&h[r], &h[min]) {
			min = r
		}
		if !before(&h[min], &e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) popMin() event {
	old := *h
	min := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // drop the proc pointer so pooled records can be collected
	*h = old[:n]
	if n > 1 {
		old[:n].down(0)
	}
	return min
}

// Kernel is a discrete-event simulation instance. Create one with NewKernel,
// spawn processes with Spawn or SpawnStep, then call Run from the goroutine
// that created it. A Kernel must not be reused after Run returns.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap // wakeups at future instants
	// lane holds the wakeups scheduled for the current instant, in FIFO
	// order from laneHead; it is drained before time advances.
	lane     []wakeup
	laneHead int
	procs    []*proc
	freeCoro []*proc // pooled blocking-process records (coroutine parked)
	freeStep []*proc // pooled continuation-process records
	idgen    int
	failure  error
	seed     int64
	rng      *rand.Rand // seeded from seed on first use
	running  bool
	finished bool // set by AdvanceTo once the queue drained and shutdown ran
}

// NewKernel returns a kernel whose processes draw randomness from the given
// seed. The same seed always yields an identical execution.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulated processes or between Run calls, never concurrently.
// The source is seeded on first use — seeding costs more than building the
// rest of a kernel, and most models never draw from it — which yields the
// same sequence as seeding at construction.
func (k *Kernel) Rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.seed))
	}
	return k.rng
}

// Spawn registers a new blocking process. It may be called before Run or
// from inside a running process (usually via Env.Spawn). The process starts
// at the current virtual time, after previously scheduled same-time events.
//
// Finished process records (and their coroutines) are reused, so workloads
// that spawn one short-lived process per message or transfer do not pay a
// record and coroutine allocation each time.
func (k *Kernel) Spawn(name string, fn func(*Env)) {
	var p *proc
	if n := len(k.freeCoro); n > 0 {
		p = k.freeCoro[n-1]
		k.freeCoro[n-1] = nil
		k.freeCoro = k.freeCoro[:n-1]
		p.name = name
		p.state = stateNew
		p.killed = false
	} else {
		p = k.newCoroProc(name)
		k.procs = append(k.procs, p)
	}
	// Fresh id even on reuse: ids stay monotonic so the deterministic
	// shutdown kill order reflects spawn order.
	p.id = k.idgen
	k.idgen++
	p.fn = fn
	k.schedule(k.now, p)
}

// newCoroProc creates a process record backed by a fresh coroutine and runs
// the coroutine to its first suspension point, so the first dispatch resumes
// straight into the incarnation body.
func (k *Kernel) newCoroProc(name string) *proc {
	p := &proc{state: stateNew, name: name}
	p.env = Env{k: k, p: p}
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// Each loop iteration serves one incarnation of this record. The
		// leading yield doubles as the pool wait: between incarnations the
		// record sits in freeCoro with the coroutine suspended here.
		for {
			if !yield(struct{}{}) {
				return
			}
			if p.killed {
				if p.state == statePooled {
					// Shutdown of an idle pooled worker: no incarnation is
					// live, so there is no state to unwind.
					return
				}
				// Killed before the incarnation first ran: unwind as if the
				// body had been killed at its first instruction.
				p.state = stateDone
				p.fn = nil
				return
			}
			if !k.runBody(p) {
				return
			}
		}
	})
	p.resume() // prime: run the prologue up to the pool-wait yield
	return p
}

// runBody executes the current incarnation and reports whether the record
// was returned to the pool (false means the coroutine must end: the
// incarnation was killed or panicked, which only happens during shutdown
// or failure unwinding).
func (k *Kernel) runBody(p *proc) (pooled bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSentinel); !isKill {
				if k.failure == nil {
					k.failure = procPanic{name: p.name, value: r}
				}
			}
			pooled = false
			p.state = stateDone
		} else {
			// Normal completion: pool the record for the next Spawn. This
			// runs inside the coroutine while the event loop is blocked in
			// dispatch, so touching the free list is single-threaded.
			p.state = statePooled
			k.freeCoro = append(k.freeCoro, p)
			pooled = true
		}
		p.fn = nil
	}()
	p.state = stateRunning
	p.fn(&p.env)
	return
}

// schedule enqueues a wakeup for p at time t (clamped to now). Wakeups for
// the current instant skip the heap: they append to the same-instant lane,
// which dispatches them in FIFO order after any heap events at now. That is
// exactly (time, seq) order, because a heap event at now was pushed while
// the clock was still earlier, so its seq is lower than that of every lane
// entry.
func (k *Kernel) schedule(t Time, p *proc) {
	p.state = stateRunnable
	if t <= k.now {
		k.lane = append(k.lane, wakeup{proc: p, id: p.id})
		return
	}
	k.events.pushEvent(event{at: t, seq: k.seq, wakeup: wakeup{proc: p, id: p.id}})
	k.seq++
}

// dueNow reports whether some wakeup is pending at the current instant.
func (k *Kernel) dueNow() bool {
	return k.laneHead < len(k.lane) || (len(k.events) > 0 && k.events[0].at == k.now)
}

// pending reports whether any wakeup is pending at all.
func (k *Kernel) pending() bool { return k.laneHead < len(k.lane) || len(k.events) > 0 }

// popLane removes the oldest same-instant wakeup. The lane is reset to the
// start of its backing array whenever it empties, so it never grows past
// the largest burst of wakeups one instant produces.
func (k *Kernel) popLane() wakeup {
	w := k.lane[k.laneHead]
	k.lane[k.laneHead] = wakeup{}
	k.laneHead++
	if k.laneHead == len(k.lane) {
		k.lane, k.laneHead = k.lane[:0], 0
	}
	return w
}

// park suspends the calling blocking process until the kernel resumes it.
// It must be called with the process already registered on some wait list
// or scheduled. Continuation processes cannot park — their primitives'
// *Then variants arm a continuation instead.
func (k *Kernel) park(p *proc) {
	if p.yield == nil {
		panic("sim: blocking operation from a continuation (step) process")
	}
	p.state = stateParked
	if !p.yield(struct{}{}) || p.killed {
		panic(killSentinel{})
	}
	p.state = stateRunning
}

// Run executes events until none remain. It returns the first process panic
// as an error, if any. Processes still blocked when the event queue drains
// are killed (blocking processes' deferred functions run) before Run
// returns.
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with virtual timestamps <= horizon; a negative
// horizon means "run to completion". Remaining processes are killed before
// returning, so the kernel cannot be resumed afterwards.
func (k *Kernel) RunUntil(horizon Time) error {
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	k.advance(horizon)
	k.shutdown()
	return k.failure
}

// advance is the event loop shared by RunUntil and AdvanceTo: it dispatches
// events with timestamps <= horizon (negative = no bound) and returns
// without killing anything, so the caller decides whether the kernel keeps
// living.
func (k *Kernel) advance(horizon Time) {
	for k.failure == nil {
		var w wakeup
		at := k.now
		heapNow := len(k.events) > 0 && k.events[0].at == at
		switch {
		case heapNow || k.laneHead < len(k.lane):
			if horizon >= 0 && at > horizon {
				return
			}
			// Heap events at now precede the lane (lower seq).
			if heapNow {
				w = k.events.popMin().wakeup
			} else {
				w = k.popLane()
			}
		case len(k.events) > 0:
			if horizon >= 0 && k.events[0].at > horizon {
				return
			}
			e := k.events.popMin()
			w, at = e.wakeup, e.at
		default:
			return
		}
		if w.proc.id != w.id || w.proc.state == stateDone || w.proc.state == statePooled {
			continue // stale wakeup: the incarnation it was for is gone
		}
		k.now = at
		k.dispatch(w.proc)
	}
}

// AdvanceTo executes events with virtual timestamps <= horizon and returns
// with the kernel still live, so a driver can interleave slices of virtual
// execution with wall-clock pacing (the live serving demo's loop). Unlike
// RunUntil it does NOT kill parked processes at the horizon: calling
// AdvanceTo with ever-growing horizons replays exactly the event sequence a
// single Run would, just in pieces.
//
// done reports that the event queue drained (or a process failed); the
// kernel then shuts down exactly like Run — remaining processes are killed,
// their defers run — and every later call returns (true, err) immediately.
// The horizon must be non-negative. Not concurrency-safe: callers
// synchronize externally, like every other Kernel method.
func (k *Kernel) AdvanceTo(horizon Time) (done bool, err error) {
	if k.finished {
		return true, k.failure
	}
	if k.running {
		return false, fmt.Errorf("sim: kernel already running")
	}
	if horizon < 0 {
		return false, fmt.Errorf("sim: AdvanceTo needs a non-negative horizon")
	}
	k.running = true
	k.advance(horizon)
	if k.failure != nil || !k.pending() {
		k.finished = true
		k.shutdown()
		return true, k.failure
	}
	k.running = false
	return false, nil
}

// dispatch hands control to p until it suspends, finishes or panics. For a
// blocking process that is one coroutine switch in (and one back out, from
// inside park or the incarnation epilogue); for a continuation process it
// is the step trampoline, inline on the event-loop stack.
func (k *Kernel) dispatch(p *proc) {
	if p.yield != nil {
		p.resume()
		return
	}
	k.dispatchStep(p)
}

// shutdown kills every process that is still alive so that no coroutine
// outlives Run, then releases the pooled coroutines.
func (k *Kernel) shutdown() {
	// Kill in a stable order for determinism of any side effects in defers.
	alive := make([]*proc, 0, len(k.procs))
	for _, p := range k.procs {
		if p.state != stateDone && p.state != statePooled {
			alive = append(alive, p)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].id < alive[j].id })
	for _, p := range alive {
		p.killed = true
		if p.yield != nil {
			// Resume the coroutine: park (or the pool wait) observes the
			// kill and unwinds through the incarnation's defers.
			p.resume()
		} else {
			// Continuation processes hold no stack, so there is nothing to
			// unwind.
			p.state = stateDone
			p.step = nil
		}
	}
	// Pooled blocking records hold idle coroutines suspended at the pool
	// wait; resume each one so it ends.
	for _, p := range k.procs {
		if p.state == statePooled && p.yield != nil {
			p.killed = true
			p.resume()
		}
	}
	k.freeCoro, k.freeStep = nil, nil
}

// Env is a process's handle to the kernel. One Env belongs to exactly one
// process; it must not be shared across processes.
type Env struct {
	k *Kernel
	p *proc
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.k.now }

// Kernel returns the kernel this process runs on, for constructing
// synchronization primitives from inside a process.
func (e *Env) Kernel() *Kernel { return e.k }

// Rand returns the kernel's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.k.Rand() }

// Name returns the name the process was spawned with.
func (e *Env) Name() string { return e.p.name }

// Sleep suspends the calling blocking process for d of virtual time.
// Negative durations sleep zero time (the process still yields, so
// same-time events scheduled earlier run first). Continuation processes
// must return After instead.
func (e *Env) Sleep(d Time) {
	k := e.k
	if d <= 0 {
		// Fast path: yielding only matters if another event is pending at
		// the current instant. If neither the lane nor the heap's top holds
		// one, this process would be rescheduled and immediately
		// re-dispatched — skip the two coroutine switches and keep running.
		if !k.dueNow() {
			return
		}
		k.schedule(k.now, e.p)
		k.park(e.p)
		return
	}
	k.schedule(k.now+d, e.p)
	k.park(e.p)
}

// Yield reschedules the process at the current time behind already-queued
// same-time events. Useful to let other runnable processes make progress.
func (e *Env) Yield() { e.Sleep(0) }

// Spawn starts a new blocking process at the current virtual time.
func (e *Env) Spawn(name string, fn func(*Env)) { e.k.Spawn(name, fn) }

// SpawnStep starts a new continuation process at the current virtual time.
func (e *Env) SpawnStep(name string, step Step) { e.k.SpawnStep(name, step) }
