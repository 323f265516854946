package sim

// Chan is a blocking FIFO channel between simulated processes, analogous to
// a Go channel but operating in virtual time. A capacity of zero gives
// rendezvous semantics. All operations must be called from simulated
// processes of the same kernel.
//
// The wait queues are continuation-aware: blocking processes (Put/Get) and
// continuation processes (PutThen/GetThen) share the same FIFO queues, so
// wakeup order is a single discipline regardless of process flavour.
//
// Getter parking records (one per blocked Get/GetThen) are pooled per
// channel, and a continuation getter's wake step is a method value bound
// once when its record is created, so waiting for a value allocates nothing
// in steady state.
type Chan[T any] struct {
	k        *Kernel
	capacity int
	buf      []T
	getQ     []*chanGetter[T]
	putQ     []*chanPutter[T]
	freeGet  []*chanGetter[T]
	closed   bool
}

type chanGetter[T any] struct {
	c    *Chan[T]
	p    *proc
	val  T
	ok   bool
	hit  bool                            // value delivered directly (or channel closed)
	next func(e *Env, v T, ok bool) Cont // GetThen's continuation
	wake Step                            // g.resume, bound once
}

type chanPutter[T any] struct {
	p   *proc
	val T
}

// getter returns a parking record for p from the pool, or a new one.
func (c *Chan[T]) getter(p *proc) *chanGetter[T] {
	var g *chanGetter[T]
	if n := len(c.freeGet); n > 0 {
		g = c.freeGet[n-1]
		c.freeGet[n-1] = nil
		c.freeGet = c.freeGet[:n-1]
	} else {
		g = &chanGetter[T]{c: c}
		g.wake = g.resume
	}
	g.p = p
	c.getQ = append(c.getQ, g)
	return g
}

// result takes the delivered value out of a woken getter and returns the
// record to the pool.
func (g *chanGetter[T]) result() (T, bool) {
	v, ok := g.val, g.ok
	var zero T
	g.p, g.val, g.ok, g.hit, g.next = nil, zero, false, false, nil
	g.c.freeGet = append(g.c.freeGet, g)
	return v, ok
}

// resume is a continuation getter's wake step: delivery (or close) set
// val/ok before waking it; spurious wakeups are impossible, matching the
// blocking Get loop.
func (g *chanGetter[T]) resume(e *Env) Cont {
	next := g.next
	v, ok := g.result()
	return next(e, v, ok)
}

// NewChan creates a channel with the given buffer capacity (>= 0).
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{k: k, capacity: capacity}
}

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Put delivers v, blocking while the buffer is full (or, for capacity zero,
// until a getter arrives). Put on a closed channel panics.
func (c *Chan[T]) Put(e *Env, v T) {
	if c.putReady(v) {
		return
	}
	w := &chanPutter[T]{p: e.p, val: v}
	c.putQ = append(c.putQ, w)
	c.k.park(e.p)
	if c.closed {
		panic("sim: channel closed while put blocked")
	}
}

// PutThen is the continuation form of Put: it delivers v (immediately when
// there is room or a waiting getter, otherwise after blocking in the same
// FIFO putter queue) and then runs the next step. Steps must return the
// directive PutThen returns.
func (c *Chan[T]) PutThen(e *Env, v T, next Step) Cont {
	if c.putReady(v) {
		return next(e)
	}
	w := &chanPutter[T]{p: e.p, val: v}
	c.putQ = append(c.putQ, w)
	e.p.step = func(e *Env) Cont {
		if c.closed {
			panic("sim: channel closed while put blocked")
		}
		return next(e)
	}
	return Blocked()
}

// putReady performs the non-blocking part of a put: direct hand-off to a
// waiting getter or insertion into buffer space. It reports whether v was
// delivered; panics if the channel is closed.
func (c *Chan[T]) putReady(v T) bool {
	if c.closed {
		panic("sim: put on closed channel")
	}
	// Direct hand-off to a waiting getter keeps FIFO order only when no
	// values are already buffered ahead of v.
	if len(c.getQ) > 0 && len(c.buf) == 0 {
		g := popFront(&c.getQ)
		g.val, g.ok, g.hit = v, true, true
		c.k.schedule(c.k.now, g.p)
		return true
	}
	if len(c.buf) < c.capacity {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Get removes and returns the next value. It blocks while the channel is
// empty; it returns ok=false once the channel is closed and drained.
func (c *Chan[T]) Get(e *Env) (T, bool) {
	for {
		if v, ok := c.takeReady(); ok {
			return v, true
		}
		if c.closed {
			var zero T
			return zero, false
		}
		g := c.getter(e.p)
		c.k.park(e.p)
		hit := g.hit
		v, ok := g.result()
		if hit {
			return v, ok
		}
		// Spurious wakeup is impossible in this kernel, but the loop also
		// covers the close-while-waiting path where hit is set with ok=false.
	}
}

// GetThen is the continuation form of Get: it runs next with the received
// value (immediately when one is available, otherwise after waiting in the
// same FIFO getter queue) or with ok=false once the channel is closed and
// drained. Steps must return the directive GetThen returns.
func (c *Chan[T]) GetThen(e *Env, next func(e *Env, v T, ok bool) Cont) Cont {
	if v, ok := c.takeReady(); ok {
		return next(e, v, true)
	}
	if c.closed {
		var zero T
		return next(e, zero, false)
	}
	g := c.getter(e.p)
	g.next = next
	e.p.step = g.wake
	return Blocked()
}

// TryGet is the non-blocking variant of Get: ok=false means no value was
// immediately available.
func (c *Chan[T]) TryGet() (T, bool) {
	if v, ok := c.takeReady(); ok {
		return v, true
	}
	var zero T
	return zero, false
}

// takeReady pops a buffered value (promoting a blocked putter into the
// buffer) or accepts a value from a blocked putter directly (rendezvous).
func (c *Chan[T]) takeReady() (T, bool) {
	if len(c.buf) > 0 {
		v := popFront(&c.buf)
		if len(c.putQ) > 0 {
			w := popFront(&c.putQ)
			c.buf = append(c.buf, w.val)
			c.k.schedule(c.k.now, w.p)
		}
		return v, true
	}
	if len(c.putQ) > 0 { // capacity 0 rendezvous
		w := popFront(&c.putQ)
		c.k.schedule(c.k.now, w.p)
		return w.val, true
	}
	var zero T
	return zero, false
}

// Close marks the channel closed and wakes all blocked getters with
// ok=false. Items already buffered remain retrievable. Closing twice
// panics, as does closing with blocked putters.
func (c *Chan[T]) Close(e *Env) {
	if c.closed {
		panic("sim: close of closed channel")
	}
	if len(c.putQ) > 0 {
		panic("sim: close with blocked putters")
	}
	c.closed = true
	for _, g := range c.getQ {
		g.hit, g.ok = true, false
		c.k.schedule(c.k.now, g.p)
	}
	c.getQ = nil
}
