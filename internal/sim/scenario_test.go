package sim_test

// Differential kernel-oracle harness: randomized scenario programs run on
// both the continuation-based kernel (internal/sim) and the frozen
// goroutine-per-process oracle (internal/sim/oracle), and must produce
// identical event traces, final virtual times, RNG draw sequences and
// failures.
//
// A scenario program is a tiny straight-line concurrent program: a set of
// shared primitives (channels, resources, signals, conds, wait groups) and
// per-process scripts of kernel operations. Programs are decoded from a
// compact byte string — the same decoder serves the seeded random corpus
// (TestDiffRandomPrograms), the checked-in regression corpus and
// FuzzKernelScenario — so every program the fuzzer can invent is also a
// program the differential suite can replay.
//
// One interpreter, parameterized over a thin kernel-API adapter, executes a
// program on either kernel; a second, continuation-style interpreter
// executes the same programs on the new kernel via SpawnStep and the *Then
// primitives, proving the continuation-aware wait queues implement the same
// semantics as the blocking API.

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/sim/oracle"
)

// ---------------------------------------------------------------------------
// Program representation and byte decoder

type opcode int

const (
	opSleep opcode = iota
	opYield
	opPut
	opGet
	opTryGet
	opClose
	opAcquire
	opRelease
	opSigWait
	opSigFire
	opCondWait
	opNotifyOne
	opNotifyAll
	opWGDone
	opWGWait
	opSpawn
	opRand
	opPanic
	numOpcodes
)

var opNames = [...]string{
	"sleep", "yield", "put", "get", "tryget", "close", "acq", "rel",
	"sigwait", "sigfire", "condwait", "notify1", "notifyN",
	"wgdone", "wgwait", "spawn", "rand", "panic",
}

type instr struct {
	op   opcode
	a, b int
	d    float64
}

func (in instr) String() string {
	return fmt.Sprintf("%s a=%d b=%d d=%g", opNames[in.op], in.a, in.b, in.d)
}

// prog is one scenario: shared primitives plus per-process scripts.
// scripts[0:roots] are spawned before Run; the rest only run if some script
// spawns them (spawn targets always point at higher indices, so the spawn
// graph is a DAG and the process count is finite).
type prog struct {
	chanCaps []int // one channel per entry, with this buffer capacity
	resCaps  []int
	nSigs    int
	nConds   int
	wgAdds   []int // one wait group per entry, Add()ed before Run
	scripts  [][]instr
	roots    int
	horizon  float64 // <0: run to completion
}

func (p prog) String() string {
	s := fmt.Sprintf("chans=%v res=%v sigs=%d conds=%d wgs=%v roots=%d horizon=%g\n",
		p.chanCaps, p.resCaps, p.nSigs, p.nConds, p.wgAdds, p.roots, p.horizon)
	for i, sc := range p.scripts {
		s += fmt.Sprintf("  script %d:\n", i)
		for _, in := range sc {
			s += "    " + in.String() + "\n"
		}
	}
	return s
}

type cursor struct {
	data []byte
	pos  int
}

// next returns the next byte, or 0 once the input is exhausted (so every
// byte string decodes to some program).
func (c *cursor) next() int {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b)
}

const (
	maxScripts       = 6
	maxInstrs        = 12
	maxSpawnsPerProc = 2
	sleepQuantum     = 0.25
	horizonQuantum   = 0.75
)

// decodeProgram turns an arbitrary byte string into a valid, finite
// scenario program. The mapping is total: every input decodes to something,
// and small inputs decode to small programs. Decoded programs may still
// panic at run time (close of a closed channel, WaitGroup counter below
// zero, an explicit panic op) — deliberately so: both kernels must fail
// identically too.
func decodeProgram(data []byte) prog {
	c := &cursor{data: data}
	var p prog
	for i, n := 0, c.next()%3; i < n; i++ {
		p.chanCaps = append(p.chanCaps, c.next()%3)
	}
	for i, n := 0, c.next()%3; i < n; i++ {
		p.resCaps = append(p.resCaps, 1+c.next()%2)
	}
	p.nSigs = c.next() % 2
	p.nConds = c.next() % 2
	for i, n := 0, c.next()%2; i < n; i++ {
		p.wgAdds = append(p.wgAdds, 1+c.next()%3)
	}
	ns := 1 + c.next()%maxScripts
	p.roots = 1 + c.next()%ns
	if h := c.next() % 8; h == 0 {
		p.horizon = -1
	} else {
		p.horizon = float64(h) * horizonQuantum
	}
	for s := 0; s < ns; s++ {
		n := c.next() % (maxInstrs + 1)
		spawns := 0
		held := make([]int, len(p.resCaps))
		var sc []instr
		for j := 0; j < n; j++ {
			in := instr{op: opcode(c.next() % int(numOpcodes))}
			switch in.op {
			case opSleep:
				in.d = float64(c.next()%9) * sleepQuantum
			case opPut:
				if len(p.chanCaps) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.chanCaps)
				in.b = c.next() % 100
			case opGet, opTryGet, opClose:
				if len(p.chanCaps) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.chanCaps)
			case opAcquire, opRelease:
				if len(p.resCaps) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.resCaps)
				// A release that cannot be statically paired with an earlier
				// acquire in this script becomes an acquire: "release of
				// idle resource" aborts would otherwise dominate the random
				// corpus. (Held units are deliberately NOT auto-released at
				// script end: leaked units exercise the deadlock-kill path.)
				if in.op == opRelease && held[in.a] == 0 {
					in.op = opAcquire
				}
				if in.op == opAcquire {
					held[in.a]++
				} else {
					held[in.a]--
				}
			case opSigWait, opSigFire:
				if p.nSigs == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % p.nSigs
			case opCondWait, opNotifyOne, opNotifyAll:
				if p.nConds == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % p.nConds
			case opWGDone, opWGWait:
				if len(p.wgAdds) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.wgAdds)
			case opSpawn:
				if s+1 >= ns || spawns >= maxSpawnsPerProc {
					in.op = opYield
					break
				}
				in.a = s + 1 + c.next()%(ns-s-1)
				spawns++
			case opPanic:
				// Panics end the whole simulation, so keep them rare: only
				// a doubly-confirmed byte panics, anything else yields.
				if c.next()%16 != 0 {
					in.op = opYield
				}
			}
			sc = append(sc, in)
		}
		p.scripts = append(p.scripts, sc)
	}
	return p
}

// ---------------------------------------------------------------------------
// Kernel-API adapters

// tenv/tkern and friends are the least common denominator of the two
// kernels' blocking APIs, in float64 time. The interpreter only speaks this
// interface, so a differential mismatch can only come from the kernels.
type tenv interface {
	Sleep(d float64)
	Yield()
	Now() float64
	Rand() *rand.Rand
}

type tchan interface {
	Put(e tenv, v int)
	Get(e tenv) (int, bool)
	TryGet() (int, bool)
	Close(e tenv)
}

type tres interface {
	Acquire(e tenv)
	Release()
}

type tsig interface {
	Wait(e tenv)
	Fire()
}

type tcond interface {
	Wait(e tenv)
	NotifyOne()
	NotifyAll()
}

type twg interface {
	Add(n int)
	Done()
	Wait(e tenv)
}

type tkern interface {
	Spawn(name string, fn func(tenv))
	RunUntil(h float64) error
	Now() float64
	NewChan(capacity int) tchan
	NewResource(capacity int) tres
	NewSignal() tsig
	NewCond() tcond
	NewWaitGroup() twg
}

// --- adapter over the new continuation-based kernel (blocking API)

type simKern struct{ k *sim.Kernel }
type simEnv struct{ e *sim.Env }
type simChan struct{ c *sim.Chan[int] }
type simRes struct{ r *sim.Resource }
type simSig struct{ s *sim.Signal }
type simCond struct{ c *sim.Cond }
type simWG struct{ w *sim.WaitGroup }

func newSimKern(seed int64) tkern { return simKern{sim.NewKernel(seed)} }

func (k simKern) Spawn(name string, fn func(tenv)) {
	k.k.Spawn(name, func(e *sim.Env) { fn(simEnv{e}) })
}
func (k simKern) RunUntil(h float64) error      { return k.k.RunUntil(sim.Time(h)) }
func (k simKern) Now() float64                  { return float64(k.k.Now()) }
func (k simKern) NewChan(capacity int) tchan    { return simChan{sim.NewChan[int](k.k, capacity)} }
func (k simKern) NewResource(capacity int) tres { return simRes{sim.NewResource(k.k, capacity)} }
func (k simKern) NewSignal() tsig               { return simSig{sim.NewSignal(k.k)} }
func (k simKern) NewCond() tcond                { return simCond{sim.NewCond(k.k)} }
func (k simKern) NewWaitGroup() twg             { return simWG{sim.NewWaitGroup(k.k)} }

func (e simEnv) Sleep(d float64)  { e.e.Sleep(sim.Time(d)) }
func (e simEnv) Yield()           { e.e.Yield() }
func (e simEnv) Now() float64     { return float64(e.e.Now()) }
func (e simEnv) Rand() *rand.Rand { return e.e.Rand() }

func (c simChan) Put(e tenv, v int)      { c.c.Put(e.(simEnv).e, v) }
func (c simChan) Get(e tenv) (int, bool) { return c.c.Get(e.(simEnv).e) }
func (c simChan) TryGet() (int, bool)    { return c.c.TryGet() }
func (c simChan) Close(e tenv)           { c.c.Close(e.(simEnv).e) }

func (r simRes) Acquire(e tenv) { r.r.Acquire(e.(simEnv).e) }
func (r simRes) Release()       { r.r.Release() }

func (s simSig) Wait(e tenv) { s.s.Wait(e.(simEnv).e) }
func (s simSig) Fire()       { s.s.Fire() }

func (c simCond) Wait(e tenv) { c.c.Wait(e.(simEnv).e) }
func (c simCond) NotifyOne()  { c.c.NotifyOne() }
func (c simCond) NotifyAll()  { c.c.NotifyAll() }

func (w simWG) Add(n int)   { w.w.Add(n) }
func (w simWG) Done()       { w.w.Done() }
func (w simWG) Wait(e tenv) { w.w.Wait(e.(simEnv).e) }

// --- adapter over the frozen goroutine oracle

type oraKern struct{ k *oracle.Kernel }
type oraEnv struct{ e *oracle.Env }
type oraChan struct{ c *oracle.Chan[int] }
type oraRes struct{ r *oracle.Resource }
type oraSig struct{ s *oracle.Signal }
type oraCond struct{ c *oracle.Cond }
type oraWG struct{ w *oracle.WaitGroup }

func newOraKern(seed int64) tkern { return oraKern{oracle.NewKernel(seed)} }

func (k oraKern) Spawn(name string, fn func(tenv)) {
	k.k.Spawn(name, func(e *oracle.Env) { fn(oraEnv{e}) })
}
func (k oraKern) RunUntil(h float64) error      { return k.k.RunUntil(oracle.Time(h)) }
func (k oraKern) Now() float64                  { return float64(k.k.Now()) }
func (k oraKern) NewChan(capacity int) tchan    { return oraChan{oracle.NewChan[int](k.k, capacity)} }
func (k oraKern) NewResource(capacity int) tres { return oraRes{oracle.NewResource(k.k, capacity)} }
func (k oraKern) NewSignal() tsig               { return oraSig{oracle.NewSignal(k.k)} }
func (k oraKern) NewCond() tcond                { return oraCond{oracle.NewCond(k.k)} }
func (k oraKern) NewWaitGroup() twg             { return oraWG{oracle.NewWaitGroup(k.k)} }

func (e oraEnv) Sleep(d float64)  { e.e.Sleep(oracle.Time(d)) }
func (e oraEnv) Yield()           { e.e.Yield() }
func (e oraEnv) Now() float64     { return float64(e.e.Now()) }
func (e oraEnv) Rand() *rand.Rand { return e.e.Rand() }

func (c oraChan) Put(e tenv, v int)      { c.c.Put(e.(oraEnv).e, v) }
func (c oraChan) Get(e tenv) (int, bool) { return c.c.Get(e.(oraEnv).e) }
func (c oraChan) TryGet() (int, bool)    { return c.c.TryGet() }
func (c oraChan) Close(e tenv)           { c.c.Close(e.(oraEnv).e) }

func (r oraRes) Acquire(e tenv) { r.r.Acquire(e.(oraEnv).e) }
func (r oraRes) Release()       { r.r.Release() }

func (s oraSig) Wait(e tenv) { s.s.Wait(e.(oraEnv).e) }
func (s oraSig) Fire()       { s.s.Fire() }

func (c oraCond) Wait(e tenv) { c.c.Wait(e.(oraEnv).e) }
func (c oraCond) NotifyOne()  { c.c.NotifyOne() }
func (c oraCond) NotifyAll()  { c.c.NotifyAll() }

func (w oraWG) Add(n int)   { w.w.Add(n) }
func (w oraWG) Done()       { w.w.Done() }
func (w oraWG) Wait(e tenv) { w.w.Wait(e.(oraEnv).e) }

// ---------------------------------------------------------------------------
// Trace recorder and shared log formats

type recorder struct{ lines []string }

func (r *recorder) addf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// Log-line helpers shared by the blocking and continuation interpreters, so
// the two cannot drift apart in formatting.
func logSlept(r *recorder, name string, d, now float64) { r.addf("%s slept %.9g @%.9g", name, d, now) }
func logYield(r *recorder, name string, now float64)    { r.addf("%s yield @%.9g", name, now) }
func logPut(r *recorder, name string, ch, v int, now float64) {
	r.addf("%s put c%d=%d @%.9g", name, ch, v, now)
}
func logGot(r *recorder, name string, ch, v int, ok bool, now float64) {
	r.addf("%s got c%d=%d,%t @%.9g", name, ch, v, ok, now)
}
func logTryGet(r *recorder, name string, ch, v int, ok bool, now float64) {
	r.addf("%s tryget c%d=%d,%t @%.9g", name, ch, v, ok, now)
}
func logClose(r *recorder, name string, ch int, now float64) {
	r.addf("%s close c%d @%.9g", name, ch, now)
}
func logAcq(r *recorder, name string, res int, now float64) {
	r.addf("%s acq r%d @%.9g", name, res, now)
}
func logRel(r *recorder, name string, res int, now float64) {
	r.addf("%s rel r%d @%.9g", name, res, now)
}
func logSigWait(r *recorder, name string, s int, now float64) {
	r.addf("%s sigwait g%d @%.9g", name, s, now)
}
func logSigFire(r *recorder, name string, s int, now float64) {
	r.addf("%s sigfire g%d @%.9g", name, s, now)
}
func logCondWait(r *recorder, name string, c int, now float64) {
	r.addf("%s condwait d%d @%.9g", name, c, now)
}
func logNotify(r *recorder, name, kind string, c int, now float64) {
	r.addf("%s %s d%d @%.9g", name, kind, c, now)
}
func logWGDone(r *recorder, name string, w int, now float64) {
	r.addf("%s wgdone w%d @%.9g", name, w, now)
}
func logWGWait(r *recorder, name string, w int, now float64) {
	r.addf("%s wgwait w%d @%.9g", name, w, now)
}
func logSpawn(r *recorder, name, child string, now float64) {
	r.addf("%s spawn %s @%.9g", name, child, now)
}
func logRand(r *recorder, name string, v int64, now float64) {
	r.addf("%s rand %d @%.9g", name, v, now)
}
func logEnd(r *recorder, name string, now float64) { r.addf("%s end @%.9g", name, now) }

// killPrefix tags trace lines emitted while a blocking process unwinds
// after being killed at shutdown. Continuation processes hold no stack and
// are dropped without unwinding, so step-vs-blocking comparisons filter
// these lines (kernel-vs-oracle comparisons keep them: kill order is part
// of the contract).
const killPrefix = "K "

func logKilled(r *recorder, name string, now float64) {
	r.addf(killPrefix+"%s killed @%.9g", name, now)
}

func stripKills(lines []string) []string {
	out := make([]string, 0, len(lines))
	for _, l := range lines {
		if len(l) >= len(killPrefix) && l[:len(killPrefix)] == killPrefix {
			continue
		}
		out = append(out, l)
	}
	return out
}

// ---------------------------------------------------------------------------
// Blocking interpreter (adapter-based: runs on either kernel)

type blockRunner struct {
	p      prog
	k      tkern
	rec    *recorder
	chans  []tchan
	ress   []tres
	sigs   []tsig
	conds  []tcond
	wgs    []twg
	spawnN int
}

// runProgBlocking executes p on the kernel built by newK and returns the
// trace. The final line records the kernel's end time and error, so those
// are compared too.
func runProgBlocking(p prog, newK func(seed int64) tkern, seed int64) []string {
	k := newK(seed)
	r := &blockRunner{p: p, k: k, rec: &recorder{}}
	for _, c := range p.chanCaps {
		r.chans = append(r.chans, k.NewChan(c))
	}
	for _, c := range p.resCaps {
		r.ress = append(r.ress, k.NewResource(c))
	}
	for i := 0; i < p.nSigs; i++ {
		r.sigs = append(r.sigs, k.NewSignal())
	}
	for i := 0; i < p.nConds; i++ {
		r.conds = append(r.conds, k.NewCond())
	}
	for _, n := range p.wgAdds {
		w := k.NewWaitGroup()
		w.Add(n)
		r.wgs = append(r.wgs, w)
	}
	for s := 0; s < p.roots; s++ {
		r.spawn(s)
	}
	err := k.RunUntil(p.horizon)
	r.rec.addf("final now=%.9g err=%v", k.Now(), err)
	return r.rec.lines
}

func (r *blockRunner) spawn(si int) string {
	name := fmt.Sprintf("p%d.s%d", r.spawnN, si)
	r.spawnN++
	r.k.Spawn(name, func(e tenv) {
		done := false
		defer func() {
			if !done {
				logKilled(r.rec, name, e.Now())
			}
		}()
		r.exec(e, si, name)
		done = true
		logEnd(r.rec, name, e.Now())
	})
	return name
}

func (r *blockRunner) exec(e tenv, si int, name string) {
	for _, in := range r.p.scripts[si] {
		switch in.op {
		case opSleep:
			e.Sleep(in.d)
			logSlept(r.rec, name, in.d, e.Now())
		case opYield:
			e.Yield()
			logYield(r.rec, name, e.Now())
		case opPut:
			r.chans[in.a].Put(e, in.b)
			logPut(r.rec, name, in.a, in.b, e.Now())
		case opGet:
			v, ok := r.chans[in.a].Get(e)
			logGot(r.rec, name, in.a, v, ok, e.Now())
		case opTryGet:
			v, ok := r.chans[in.a].TryGet()
			logTryGet(r.rec, name, in.a, v, ok, e.Now())
		case opClose:
			r.chans[in.a].Close(e)
			logClose(r.rec, name, in.a, e.Now())
		case opAcquire:
			r.ress[in.a].Acquire(e)
			logAcq(r.rec, name, in.a, e.Now())
		case opRelease:
			r.ress[in.a].Release()
			logRel(r.rec, name, in.a, e.Now())
		case opSigWait:
			r.sigs[in.a].Wait(e)
			logSigWait(r.rec, name, in.a, e.Now())
		case opSigFire:
			r.sigs[in.a].Fire()
			logSigFire(r.rec, name, in.a, e.Now())
		case opCondWait:
			r.conds[in.a].Wait(e)
			logCondWait(r.rec, name, in.a, e.Now())
		case opNotifyOne:
			r.conds[in.a].NotifyOne()
			logNotify(r.rec, name, "notify1", in.a, e.Now())
		case opNotifyAll:
			r.conds[in.a].NotifyAll()
			logNotify(r.rec, name, "notifyN", in.a, e.Now())
		case opWGDone:
			r.wgs[in.a].Done()
			logWGDone(r.rec, name, in.a, e.Now())
		case opWGWait:
			r.wgs[in.a].Wait(e)
			logWGWait(r.rec, name, in.a, e.Now())
		case opSpawn:
			child := r.spawn(in.a)
			logSpawn(r.rec, name, child, e.Now())
		case opRand:
			v := e.Rand().Int63n(1 << 30)
			logRand(r.rec, name, v, e.Now())
		case opPanic:
			panic(fmt.Sprintf("boom from %s", name))
		}
	}
}

// ---------------------------------------------------------------------------
// Continuation interpreter (sim only: SpawnStep + *Then primitives)

// flavor decides, per spawned process index, whether it runs as a blocking
// process or a continuation process — so one program can exercise both
// flavors interleaved on the same kernel and the same wait queues.
type flavor func(spawnIdx int) bool // true: continuation (step) process

func allStep(int) bool       { return true }
func allBlock(int) bool      { return false }
func alternating(i int) bool { return i%2 == 0 }

type stepRunner struct {
	p      prog
	k      *sim.Kernel
	rec    *recorder
	chans  []*sim.Chan[int]
	ress   []*sim.Resource
	sigs   []*sim.Signal
	conds  []*sim.Cond
	wgs    []*sim.WaitGroup
	spawnN int
	fl     flavor
}

// runProgStep executes p on the new kernel with per-process flavor chosen
// by fl, using the continuation API for step-flavored processes. Its traces
// are comparable to runProgBlocking's after stripKills.
func runProgStep(p prog, seed int64, fl flavor) []string {
	r := newStepRunner(p, seed, fl)
	err := r.k.RunUntil(sim.Time(p.horizon))
	r.rec.addf("final now=%.9g err=%v", float64(r.k.Now()), err)
	return r.rec.lines
}

// newStepRunner builds p's primitives on a fresh kernel and spawns its root
// scripts, leaving the kernel ready to run.
func newStepRunner(p prog, seed int64, fl flavor) *stepRunner {
	k := sim.NewKernel(seed)
	r := &stepRunner{p: p, k: k, rec: &recorder{}, fl: fl}
	for _, c := range p.chanCaps {
		r.chans = append(r.chans, sim.NewChan[int](k, c))
	}
	for _, c := range p.resCaps {
		r.ress = append(r.ress, sim.NewResource(k, c))
	}
	for i := 0; i < p.nSigs; i++ {
		r.sigs = append(r.sigs, sim.NewSignal(k))
	}
	for i := 0; i < p.nConds; i++ {
		r.conds = append(r.conds, sim.NewCond(k))
	}
	for _, n := range p.wgAdds {
		w := sim.NewWaitGroup(k)
		w.Add(n)
		r.wgs = append(r.wgs, w)
	}
	for s := 0; s < p.roots; s++ {
		r.spawn(s)
	}
	return r
}

func (r *stepRunner) spawn(si int) string {
	name := fmt.Sprintf("p%d.s%d", r.spawnN, si)
	if r.fl(r.spawnN) {
		r.spawnN++
		r.k.SpawnStep(name, r.stepAt(si, 0, name))
		return name
	}
	r.spawnN++
	r.k.Spawn(name, func(e *sim.Env) {
		done := false
		defer func() {
			if !done {
				logKilled(r.rec, name, float64(e.Now()))
			}
		}()
		r.execBlocking(e, si, name)
		done = true
		logEnd(r.rec, name, float64(e.Now()))
	})
	return name
}

// execBlocking is the blocking flavor on native sim types (used for the
// mixed-mode programs; logging matches blockRunner.exec via the shared
// helpers).
func (r *stepRunner) execBlocking(e *sim.Env, si int, name string) {
	for _, in := range r.p.scripts[si] {
		switch in.op {
		case opSleep:
			e.Sleep(sim.Time(in.d))
			logSlept(r.rec, name, in.d, float64(e.Now()))
		case opYield:
			e.Yield()
			logYield(r.rec, name, float64(e.Now()))
		case opPut:
			r.chans[in.a].Put(e, in.b)
			logPut(r.rec, name, in.a, in.b, float64(e.Now()))
		case opGet:
			v, ok := r.chans[in.a].Get(e)
			logGot(r.rec, name, in.a, v, ok, float64(e.Now()))
		case opTryGet:
			v, ok := r.chans[in.a].TryGet()
			logTryGet(r.rec, name, in.a, v, ok, float64(e.Now()))
		case opClose:
			r.chans[in.a].Close(e)
			logClose(r.rec, name, in.a, float64(e.Now()))
		case opAcquire:
			r.ress[in.a].Acquire(e)
			logAcq(r.rec, name, in.a, float64(e.Now()))
		case opRelease:
			r.ress[in.a].Release()
			logRel(r.rec, name, in.a, float64(e.Now()))
		case opSigWait:
			r.sigs[in.a].Wait(e)
			logSigWait(r.rec, name, in.a, float64(e.Now()))
		case opSigFire:
			r.sigs[in.a].Fire()
			logSigFire(r.rec, name, in.a, float64(e.Now()))
		case opCondWait:
			r.conds[in.a].Wait(e)
			logCondWait(r.rec, name, in.a, float64(e.Now()))
		case opNotifyOne:
			r.conds[in.a].NotifyOne()
			logNotify(r.rec, name, "notify1", in.a, float64(e.Now()))
		case opNotifyAll:
			r.conds[in.a].NotifyAll()
			logNotify(r.rec, name, "notifyN", in.a, float64(e.Now()))
		case opWGDone:
			r.wgs[in.a].Done()
			logWGDone(r.rec, name, in.a, float64(e.Now()))
		case opWGWait:
			r.wgs[in.a].Wait(e)
			logWGWait(r.rec, name, in.a, float64(e.Now()))
		case opSpawn:
			child := r.spawn(in.a)
			logSpawn(r.rec, name, child, float64(e.Now()))
		case opRand:
			v := e.Rand().Int63n(1 << 30)
			logRand(r.rec, name, v, float64(e.Now()))
		case opPanic:
			panic(fmt.Sprintf("boom from %s", name))
		}
	}
}

// stepAt builds the continuation that executes script si from instruction i
// onward: the straight-line script becomes a chain of Step closures, each
// blocking operation turning into its *Then form.
func (r *stepRunner) stepAt(si, i int, name string) sim.Step {
	return func(e *sim.Env) sim.Cont {
		sc := r.p.scripts[si]
		if i >= len(sc) {
			logEnd(r.rec, name, float64(e.Now()))
			return sim.Done()
		}
		in := sc[i]
		next := r.stepAt(si, i+1, name)
		switch in.op {
		case opSleep:
			return sim.After(sim.Time(in.d), func(e *sim.Env) sim.Cont {
				logSlept(r.rec, name, in.d, float64(e.Now()))
				return next(e)
			})
		case opYield:
			return sim.After(0, func(e *sim.Env) sim.Cont {
				logYield(r.rec, name, float64(e.Now()))
				return next(e)
			})
		case opPut:
			return r.chans[in.a].PutThen(e, in.b, func(e *sim.Env) sim.Cont {
				logPut(r.rec, name, in.a, in.b, float64(e.Now()))
				return next(e)
			})
		case opGet:
			return r.chans[in.a].GetThen(e, func(e *sim.Env, v int, ok bool) sim.Cont {
				logGot(r.rec, name, in.a, v, ok, float64(e.Now()))
				return next(e)
			})
		case opTryGet:
			v, ok := r.chans[in.a].TryGet()
			logTryGet(r.rec, name, in.a, v, ok, float64(e.Now()))
			return next(e)
		case opClose:
			r.chans[in.a].Close(e)
			logClose(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opAcquire:
			return r.ress[in.a].AcquireThen(e, func(e *sim.Env) sim.Cont {
				logAcq(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opRelease:
			r.ress[in.a].Release()
			logRel(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opSigWait:
			return r.sigs[in.a].WaitThen(e, func(e *sim.Env) sim.Cont {
				logSigWait(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opSigFire:
			r.sigs[in.a].Fire()
			logSigFire(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opCondWait:
			return r.conds[in.a].WaitThen(e, func(e *sim.Env) sim.Cont {
				logCondWait(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opNotifyOne:
			r.conds[in.a].NotifyOne()
			logNotify(r.rec, name, "notify1", in.a, float64(e.Now()))
			return next(e)
		case opNotifyAll:
			r.conds[in.a].NotifyAll()
			logNotify(r.rec, name, "notifyN", in.a, float64(e.Now()))
			return next(e)
		case opWGDone:
			r.wgs[in.a].Done()
			logWGDone(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opWGWait:
			return r.wgs[in.a].WaitThen(e, func(e *sim.Env) sim.Cont {
				logWGWait(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opSpawn:
			child := r.spawn(in.a)
			logSpawn(r.rec, name, child, float64(e.Now()))
			return next(e)
		case opRand:
			v := e.Rand().Int63n(1 << 30)
			logRand(r.rec, name, v, float64(e.Now()))
			return next(e)
		case opPanic:
			panic(fmt.Sprintf("boom from %s", name))
		default:
			return next(e)
		}
	}
}

// ---------------------------------------------------------------------------
// Comparison helper

// firstDiff returns the first index at which the traces differ, or -1.
func firstDiff(a, b []string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// diffReport formats a mismatch for a test failure.
func diffReport(p prog, what string, a, b []string, i int) string {
	ctx := func(t []string) string {
		lo := i - 3
		if lo < 0 {
			lo = 0
		}
		s := ""
		for j := lo; j < len(t) && j <= i; j++ {
			s += fmt.Sprintf("    %4d: %s\n", j, t[j])
		}
		if i >= len(t) {
			s += fmt.Sprintf("    %4d: <missing>\n", i)
		}
		return s
	}
	return fmt.Sprintf("%s diverge at line %d\n--- first:\n%s--- second:\n%s--- program:\n%s",
		what, i, ctx(a), ctx(b), p)
}
