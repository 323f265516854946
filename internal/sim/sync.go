package sim

// Synchronization primitives over virtual time. Wait queues are
// continuation-aware: blocking processes (Acquire/Wait) and continuation
// processes (AcquireThen/WaitThen) share the same FIFO queues, so admission
// and wakeup order is one discipline across process flavours.

// Resource is a counting semaphore over virtual time with FIFO admission.
// It models exclusive or bounded-concurrency hardware such as a bus, a DMA
// engine or a processor.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waitQ    []*proc
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, capacity: capacity}
}

// InUse reports the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity reports the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// Acquire obtains one unit, blocking in FIFO order while none is free.
func (r *Resource) Acquire(e *Env) {
	if r.inUse < r.capacity && len(r.waitQ) == 0 {
		r.inUse++
		return
	}
	r.waitQ = append(r.waitQ, e.p)
	r.k.park(e.p)
	// The releaser transferred its unit to us; inUse stays constant.
}

// AcquireThen is the continuation form of Acquire: it obtains one unit
// (immediately when free, otherwise after waiting in the same FIFO queue)
// and then runs the next step. Steps must return the directive AcquireThen
// returns.
func (r *Resource) AcquireThen(e *Env, next Step) Cont {
	if r.inUse < r.capacity && len(r.waitQ) == 0 {
		r.inUse++
		return next(e)
	}
	r.waitQ = append(r.waitQ, e.p)
	e.p.step = next // the releaser transfers its unit; inUse stays constant
	return Blocked()
}

// Release returns one unit and admits the longest-waiting process, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	if len(r.waitQ) > 0 {
		r.k.schedule(r.k.now, popFront(&r.waitQ))
		return // unit handed directly to the waiter
	}
	r.inUse--
}

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(e *Env, fn func()) {
	r.Acquire(e)
	defer r.Release()
	fn()
}

// Signal is a one-shot broadcast event: every process that Waits before Fire
// blocks; Fire releases them all, and later Waits return immediately.
type Signal struct {
	k       *Kernel
	fired   bool
	waiters []*proc
}

// NewSignal creates an unfired signal.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Wait blocks until the signal fires (returns immediately if it already has).
func (s *Signal) Wait(e *Env) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, e.p)
	s.k.park(e.p)
}

// WaitThen is the continuation form of Wait: it runs next once the signal
// has fired (immediately if it already has). Steps must return the
// directive WaitThen returns.
func (s *Signal) WaitThen(e *Env, next Step) Cont {
	if s.fired {
		return next(e)
	}
	s.waiters = append(s.waiters, e.p)
	e.p.step = next
	return Blocked()
}

// Fire releases all current and future waiters. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, p := range s.waiters {
		s.k.schedule(s.k.now, p)
	}
	s.waiters = nil
}

// Cond is a condition variable for the cooperative kernel: because only one
// process runs at a time no mutex is needed, but waiters must re-check their
// predicate after waking (NotifyAll wakes every waiter). Continuation
// waiters likewise re-check in their continuation and re-register with
// WaitThen when the predicate still does not hold.
type Cond struct {
	k       *Kernel
	waiters []*proc
}

// NewCond creates a condition variable.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks the calling process until a notify.
func (c *Cond) Wait(e *Env) {
	c.waiters = append(c.waiters, e.p)
	c.k.park(e.p)
}

// WaitThen is the continuation form of Wait: it runs next after the next
// notify. Steps must return the directive WaitThen returns.
func (c *Cond) WaitThen(e *Env, next Step) Cont {
	c.waiters = append(c.waiters, e.p)
	e.p.step = next
	return Blocked()
}

// NotifyAll wakes every currently waiting process. The waiter slice's
// backing array is kept for reuse — workers and requesters re-wait on the
// same Cond immediately, and dropping the array would cost one allocation
// per notify/wait cycle on the demand path.
func (c *Cond) NotifyAll() {
	for i, p := range c.waiters {
		c.k.schedule(c.k.now, p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// NotifyOne wakes the longest-waiting process, if any.
func (c *Cond) NotifyOne() {
	if len(c.waiters) == 0 {
		return
	}
	c.k.schedule(c.k.now, popFront(&c.waiters))
}

// WaitGroup tracks completion of a dynamic set of processes in virtual time.
type WaitGroup struct {
	k     *Kernel
	count int
	done  []*proc
}

// NewWaitGroup creates an empty wait group.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add increments the outstanding-work counter.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the counter, waking waiters when it reaches zero. The
// waiter slice's backing array is kept, so a group reused for many rounds
// (Add, Done, Wait, and again) does not allocate per round.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if w.count == 0 {
		for i, p := range w.done {
			w.k.schedule(w.k.now, p)
			w.done[i] = nil
		}
		w.done = w.done[:0]
	}
}

// Wait blocks until the counter is zero.
func (w *WaitGroup) Wait(e *Env) {
	if w.count == 0 {
		return
	}
	w.done = append(w.done, e.p)
	w.k.park(e.p)
}

// WaitThen is the continuation form of Wait: it runs next once the counter
// is zero (immediately if it already is). Steps must return the directive
// WaitThen returns.
func (w *WaitGroup) WaitThen(e *Env, next Step) Cont {
	if w.count == 0 {
		return next(e)
	}
	w.done = append(w.done, e.p)
	e.p.step = next
	return Blocked()
}
