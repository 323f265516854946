package policy

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/task"
)

// This file makes inter/intra-filter scheduling pluggable. The paper's own
// policies (DDFCFS/DDWRR/ODDS) are expressed directly by queue orderings
// and DQAA; a Scheduler generalizes both decisions — which buffer a queue
// hands to a given consumer (intra-filter, replacing the per-kind
// relative-advantage heaps) and which peer instance a demand request or a
// pushed buffer targets (inter-filter, replacing blind round-robin). Three
// rival schedulers from the related work are implemented below and raced
// against the paper's policies by the policylab experiment.

// Consumer identifies the demanding side of a scheduling decision: the
// device class that will process the buffer, the node it lives on, and the
// filter-instance index.
type Consumer struct {
	Kind     hw.Kind
	Node     int
	Instance int
}

// PeerView is a scheduler's observation of one peer instance (an upstream
// sender for PickSender, a downstream consumer for PickDest): where it
// runs, whether fault injection crashed it, and how many buffers it has
// queued.
type PeerView struct {
	Node   int
	Dead   bool
	Queued int
}

// Scheduler is a pluggable stream-scheduling strategy. Implementations
// must be deterministic pure functions of their own observed state — no
// wall clocks, no stateful RNG inside Score (which is called a variable
// number of times per pop) — so runs stay byte-reproducible. A Scheduler
// is stateful and owned by one run: construct a fresh one per simulation
// (the constructors in Constructors do).
type Scheduler interface {
	// Name labels the scheduler in reports.
	Name() string
	// Score ranks a queued buffer for a consumer; the queue hands out the
	// live buffer with the highest score (ties broken FIFO by Seq). It
	// replaces both the sender-side DBSA selection and the receiver-side
	// sorted pop.
	Score(t *task.Task, c Consumer) float64
	// PickSender chooses which of n upstream senders the consumer's next
	// demand request targets. view(i) describes sender i; rr is the
	// consumer's monotone round-robin counter (the default policy is
	// rr % n). The returned index is taken modulo n.
	PickSender(c Consumer, n int, view func(int) PeerView, rr int) int
}

// ServiceObserver is implemented by schedulers that learn from completed
// work: the runtime reports each processed buffer's consumer and service
// time.
type ServiceObserver interface {
	ObserveService(c Consumer, t *task.Task, dur sim.Time)
}

// PopObserver is implemented by schedulers that adapt to queue dynamics:
// the runtime reports every worker-side pop (the moment a device commits
// to a buffer).
type PopObserver interface {
	ObservePop(c Consumer, t *task.Task)
}

// DestPicker is implemented by schedulers that also steer push-mode
// streams: PickDest chooses the consumer instance for a pushed buffer,
// with the same contract as PickSender. Dead consumers are re-routed by
// the runtime if picked anyway.
type DestPicker interface {
	PickDest(t *task.Task, n int, view func(int) PeerView, rr int) int
}

// ---------------------------------------------------------------------------
// Affinity: XKaapi-style data-locality scheduling.

// affinityBoost multiplies a buffer's relative-advantage key when its
// producing task ran on the consumer's node. Multiplicative, so device
// suitability still dominates (a GPU-suited buffer is not hijacked by a
// CPU just because it was born there) while locality breaks the ties that
// matter.
const affinityBoost = 1.25

// AffinitySched scores buffers by data locality, in the spirit of XKaapi's
// locality-aware work stealing: a buffer whose producing (parent) task ran
// on the consumer's node has its data resident there, so that consumer is
// the preferred processor, and demand requests prefer co-located senders
// over remote ones. Residency is fed from the hook bus: a Process-hook
// subscriber calls SetHome with each processed buffer's node.
type AffinitySched struct {
	home map[uint64]int // task ID -> node that processed it
}

// NewAffinitySched creates an affinity scheduler with an empty residency
// map.
func NewAffinitySched() *AffinitySched {
	return &AffinitySched{home: make(map[uint64]int)}
}

// SetHome records that task id was processed on the given node; buffers it
// produced are considered resident there. Wire this to the Process hook.
func (a *AffinitySched) SetHome(id uint64, node int) { a.home[id] = node }

// Name implements Scheduler.
func (a *AffinitySched) Name() string { return "AFFINITY" }

// Score implements Scheduler: relative advantage, boosted when the
// buffer's data is resident on the consumer's node.
func (a *AffinitySched) Score(t *task.Task, c Consumer) float64 {
	s := t.Key[c.Kind]
	if n, ok := a.home[t.Parent]; ok && n == c.Node {
		s *= affinityBoost
	}
	return s
}

// PickSender implements Scheduler: a live co-located sender with queued
// data wins; otherwise the live sender with the deepest queue (steal from
// the richest victim); otherwise fall back to the round-robin rotation.
func (a *AffinitySched) PickSender(c Consumer, n int, view func(int) PeerView, rr int) int {
	best, bestQ := -1, 0
	for i := 0; i < n; i++ {
		v := view(i)
		if v.Dead {
			continue
		}
		if v.Node == c.Node && v.Queued > 0 {
			return i
		}
		if v.Queued > bestQ {
			best, bestQ = i, v.Queued
		}
	}
	if best >= 0 {
		return best
	}
	return rr % n
}

// PickDest implements DestPicker: pushed buffers go to a live consumer on
// the node where their data resides, if one exists; otherwise rotation.
func (a *AffinitySched) PickDest(t *task.Task, n int, view func(int) PeerView, rr int) int {
	if home, ok := a.home[t.Parent]; ok {
		for i := 0; i < n; i++ {
			if v := view(i); !v.Dead && v.Node == home {
				return i
			}
		}
	}
	return rr % n
}

// ---------------------------------------------------------------------------
// Hybrid: static graph partition across device classes + dynamic rebalance.

const (
	// hybridBonus lifts own-partition buffers above every cross-partition
	// buffer (keys are O(speedup), so 1e3 dominates): a device only steals
	// from the other partition when its own is empty.
	hybridBonus = 1000.0
	// hybridWindow is how many pops pass between rebalance decisions.
	hybridWindow = 64
	// hybridSkew is the steal-imbalance threshold that moves the split.
	hybridSkew = 8
)

// HybridSched is a graph-partition static+dynamic hybrid in the spirit of
// Wu et al.: the task space is statically partitioned across device
// classes by a threshold on the GPU relative-advantage key (buffers with
// Key[GPU] >= theta belong to the GPU partition, the rest to the CPU
// partition), and each device serves its own partition first. A device
// whose partition is empty steals cross-partition work; those steals are
// exactly the observable of queue-depth skew between the partitions, so
// the rebalancer watches the steal imbalance over a window and moves the
// threshold toward the starved class.
type HybridSched struct {
	theta                      float64
	pops, gpuSteals, cpuSteals int
}

// NewHybridSched creates a hybrid scheduler with the split at Key[GPU] = 1
// (the indifference point of the relative-advantage keys).
func NewHybridSched() *HybridSched { return &HybridSched{theta: 1} }

// Theta returns the current partition threshold, for tests and reports.
func (h *HybridSched) Theta() float64 { return h.theta }

// gpuPartition reports whether the buffer currently belongs to the GPU
// partition.
func (h *HybridSched) gpuPartition(t *task.Task) bool { return t.Key[hw.GPU] >= h.theta }

// Name implements Scheduler.
func (h *HybridSched) Name() string { return "HYBRID" }

// Score implements Scheduler: own-partition buffers rank above all
// cross-partition ones; within a partition the relative-advantage key
// orders them.
func (h *HybridSched) Score(t *task.Task, c Consumer) float64 {
	s := t.Key[c.Kind]
	if (c.Kind == hw.GPU) == h.gpuPartition(t) {
		s += hybridBonus
	}
	return s
}

// PickSender implements Scheduler: the hybrid keeps the default rotation
// between senders — its lever is the partition, not the demand fan-out.
func (h *HybridSched) PickSender(c Consumer, n int, view func(int) PeerView, rr int) int {
	return rr % n
}

// ObservePop implements PopObserver: count cross-partition steals (a steal
// happens exactly when the stealing device's own partition queue is empty,
// so the imbalance of steals is the queue-depth skew) and periodically
// move the threshold toward the class that is starving.
func (h *HybridSched) ObservePop(c Consumer, t *task.Task) {
	gpuPref := h.gpuPartition(t)
	if c.Kind == hw.GPU && !gpuPref {
		h.gpuSteals++
	} else if c.Kind != hw.GPU && gpuPref {
		h.cpuSteals++
	}
	h.pops++
	if h.pops < hybridWindow {
		return
	}
	switch skew := h.gpuSteals - h.cpuSteals; {
	case skew > hybridSkew:
		// GPUs keep running out of their own partition: widen it.
		h.theta *= 0.8
	case skew < -hybridSkew:
		// CPUs keep stealing GPU-partition work: shrink the GPU partition.
		h.theta *= 1.25
	}
	if h.theta < 0.1 {
		h.theta = 0.1
	}
	if h.theta > 10 {
		h.theta = 10
	}
	h.pops, h.gpuSteals, h.cpuSteals = 0, 0, 0
}

// ---------------------------------------------------------------------------
// Bandit: learned device assignment (epsilon-greedy, DOPPLER-spirit).

const (
	// banditBuckets is the number of feature-context buckets per arm.
	banditBuckets = 64
	// banditExploreNum/Den give the exploration rate (~10%), decided by a
	// deterministic hash of (task, kind, seed) rather than a stateful RNG
	// so scores are stable however many times they are recomputed.
	banditExploreNum = 102
	banditExploreDen = 1024
	// banditExploreBoost lifts an explore-chosen buffer above every greedy
	// score so it is actually popped.
	banditExploreBoost = 1e6
	// banditOptimism is the score of an untried (context, device) arm:
	// large enough to beat any learned advantage, below the explore boost.
	banditOptimism = 1e3
)

// FeatureFunc maps a task's estimator parameters to a normalized feature
// vector in [0, 1] (see estimator.Profile.Features). nil collapses the
// context to a single bucket — a pure per-device bandit.
type FeatureFunc func(params []float64) []float64

// banditArm is one (device, context) cell: a running mean of the observed
// reward (processed buffers per second).
type banditArm struct {
	n    int
	mean float64
}

// BanditSched is a learned device-assignment baseline in the spirit of
// DOPPLER: an epsilon-greedy contextual bandit whose arms are device
// classes and whose context is a coarse bucketing of the estimator's
// normalized task features. The greedy score of a buffer for a device is
// the learned throughput advantage of that device over the best other
// device in the same context; rewards arrive through ObserveService.
// Exploration is hash-deterministic, so the same run always explores the
// same (task, device) pairs.
type BanditSched struct {
	seed  uint64
	feats FeatureFunc
	arms  [hw.NumKinds][banditBuckets]banditArm
}

// NewBanditSched creates a bandit scheduler. feats may be nil (single
// context bucket).
func NewBanditSched(seed int64, feats FeatureFunc) *BanditSched {
	return &BanditSched{seed: uint64(seed), feats: feats}
}

// Name implements Scheduler.
func (b *BanditSched) Name() string { return "BANDIT" }

// bucket quantizes the task's normalized features into a context index.
func (b *BanditSched) bucket(t *task.Task) int {
	if b.feats == nil {
		return 0
	}
	idx := 0
	for _, f := range b.feats(t.Params) {
		lvl := int(f * 4)
		if lvl < 0 {
			lvl = 0
		}
		if lvl > 3 {
			lvl = 3
		}
		idx = (idx*4 + lvl) % banditBuckets
	}
	return idx
}

// splitmix64 is the standard splitmix64 finalizer, used as a deterministic
// per-(task, device) coin for exploration.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// explore reports whether this (task, device) pair is an exploration pick.
func (b *BanditSched) explore(id uint64, k hw.Kind) bool {
	h := splitmix64(id ^ splitmix64(uint64(k)+1) ^ b.seed)
	return h%banditExploreDen < banditExploreNum
}

// Score implements Scheduler: explore picks first, then untried arms
// (optimistic initialization), then the learned throughput advantage.
func (b *BanditSched) Score(t *task.Task, c Consumer) float64 {
	if b.explore(t.ID, c.Kind) {
		// Deterministic jitter spreads concurrent explore picks.
		return banditExploreBoost + float64(splitmix64(t.ID^b.seed)%1024)
	}
	bk := b.bucket(t)
	arm := b.arms[c.Kind][bk]
	if arm.n == 0 {
		return banditOptimism
	}
	best := 0.0
	for _, k := range hw.Kinds {
		if k == c.Kind {
			continue
		}
		if o := b.arms[k][bk]; o.n > 0 && o.mean > best {
			best = o.mean
		}
	}
	return arm.mean - best
}

// PickSender implements Scheduler: the bandit keeps the default rotation.
func (b *BanditSched) PickSender(c Consumer, n int, view func(int) PeerView, rr int) int {
	return rr % n
}

// ObserveService implements ServiceObserver: reward is processed buffers
// per second on the serving device, folded into the arm's running mean.
func (b *BanditSched) ObserveService(c Consumer, t *task.Task, dur sim.Time) {
	if dur <= 0 {
		dur = 1
	}
	reward := float64(sim.Second) / float64(dur)
	arm := &b.arms[c.Kind][b.bucket(t)]
	arm.n++
	arm.mean += (reward - arm.mean) / float64(arm.n)
}

// ---------------------------------------------------------------------------
// Constructor registry.

// Constructor names one canonical StreamPolicy configuration. New returns
// a fresh policy — schedulers are stateful, so every simulation must call
// New rather than share a value.
type Constructor struct {
	Name string
	New  func() StreamPolicy
}

// defaultReq is the static request size the registry uses for demand
// policies (the paper's DDFCFS/DDWRR baseline setting).
const defaultReq = 4

// Constructors returns every canonical policy constructor, in report
// order. The String round-trip test iterates this registry, so a policy
// added here cannot ship with a broken String; the policylab experiment
// builds its matrix from the same list (minus the push baseline).
func Constructors() []Constructor {
	return []Constructor{
		{"DDFCFS", func() StreamPolicy { return DDFCFS(defaultReq) }},
		{"DDWRR", func() StreamPolicy { return DDWRR(defaultReq) }},
		{"ODDS", func() StreamPolicy { return ODDS() }},
		{"RR-push", func() StreamPolicy { return RRPush() }},
		{"AFFINITY", func() StreamPolicy { return Affinity(defaultReq) }},
		{"HYBRID", func() StreamPolicy { return Hybrid(defaultReq) }},
		{"BANDIT", func() StreamPolicy { return Bandit(defaultReq, 1, nil) }},
	}
}

// Baseline returns the paper's demand-driven trio as the chaos, serving
// and Figure 10 studies and the live server race it, in report order:
// DDFCFS with request size 4, DDWRR with request size 32 and ODDS. It is
// not Constructors(): the registry's DDWRR uses request size 4, which the
// policy lab's matrix depends on, while the trio's DDWRR needs the deep
// queue the paper's Figure 11 search lands on for its intra-filter sorting
// to act. Switching one list to the other would change the DDWRR pipeline
// of whichever studies switched, and with it the live server's /metrics.
func Baseline() []Constructor {
	return []Constructor{
		{"DDFCFS", func() StreamPolicy { return DDFCFS(4) }},
		{"DDWRR", func() StreamPolicy { return DDWRR(32) }},
		{"ODDS", func() StreamPolicy { return ODDS() }},
	}
}

// Affinity is the XKaapi-style data-locality policy: FIFO queues (the
// scheduler's score replaces the per-kind heaps) with a fresh
// AffinitySched and a static request size.
func Affinity(requestSize int) StreamPolicy {
	return StreamPolicy{
		Name: "AFFINITY", Sender: FCFS, Receiver: FCFS,
		RequestSize: requestSize, Sched: NewAffinitySched(),
	}
}

// Hybrid is the graph-partition static+dynamic hybrid policy.
func Hybrid(requestSize int) StreamPolicy {
	return StreamPolicy{
		Name: "HYBRID", Sender: FCFS, Receiver: FCFS,
		RequestSize: requestSize, Sched: NewHybridSched(),
	}
}

// Bandit is the learned device-assignment policy; feats may be nil.
func Bandit(requestSize int, seed int64, feats FeatureFunc) StreamPolicy {
	return StreamPolicy{
		Name: "BANDIT", Sender: FCFS, Receiver: FCFS,
		RequestSize: requestSize, Sched: NewBanditSched(seed, feats),
	}
}
