// Package sim provides a deterministic discrete-event simulation engine.
//
// All of PROTEAN's substrates (the GPU model, the cluster, the spot-VM
// market) run in virtual time on top of this engine. Time is measured in
// seconds as float64. Events one domain (the root or a lane) schedules
// for the same instant fire in the order they were scheduled, which
// makes every experiment exactly reproducible for a given seed.
//
// # Event order
//
// A root simulation can host lanes (see Lane): named clock and
// tie-break domains, one per cluster node plus the gateway. Every
// timer, on the root or on any lane, sits in the root's single heap
// ordered by (time, rank, sequence): a lane's rank is its creation
// index and the root ranks after every lane, so at one instant lane
// events run before root events and lanes run in creation order. The
// sequence number is one counter shared by all domains. Each lane
// keeps its own clock (see Now), so per-node time integrals end at the
// node's own last event.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"protean/internal/obs"
)

// ErrStopped is returned by Run variants when the simulation was halted
// explicitly via Stop before the requested horizon was reached.
var ErrStopped = errors.New("simulation stopped")

// Stream is the simulation's deterministic random source: a seeded
// *rand.Rand that remembers the seed it was built from, which is what
// makes stable child-stream derivation possible. Draw methods
// (Float64, Int63, NormFloat64, ...) come from the embedded *rand.Rand.
type Stream struct {
	*rand.Rand
	seed uint64
}

func newStream(seed uint64) *Stream {
	return &Stream{Rand: rand.New(rand.NewSource(int64(seed))), seed: seed}
}

// Seed returns the seed this stream was derived from.
func (st *Stream) Seed() uint64 { return st.seed }

// Child derives the independent stream identified by label. The child
// seed is a splitmix64 finalizer over the parent seed XOR an FNV-1a
// hash of the label, so derivation consumes nothing from the parent
// stream: a child's values depend only on (root seed, derivation
// labels), never on how many draws the parent made or in what order
// sibling subsystems were built. This is the blessed pattern for
// giving a subsystem its own stream — derive once at construction,
// store the child, and never touch the shared parent again.
func (st *Stream) Child(label string) *Stream {
	return newStream(splitmix64(st.seed ^ fnv64(label)))
}

// splitmix64 is the SplitMix64 finalizer — a bijective mixer whose
// output sequence passes BigCrush, used here to turn structured seed
// material into uncorrelated stream seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fnv64 is the FNV-1a hash of s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Timer is a handle to a scheduled event. It can be cancelled until it
// fires, and rescheduled in place (see Reschedule) without allocating a
// replacement.
type Timer struct {
	at        float64
	rank      int // owning domain's rank; see timerHeap
	seq       uint64
	fn        func()
	index     int // heap index; -1 when not queued
	cancelled bool
	sim       *Sim // owning domain: the root or one of its lanes
}

// At reports the virtual time the timer is scheduled to fire at.
func (t *Timer) At() float64 { return t.at }

// Active reports whether the timer is still pending (not fired, not
// cancelled).
//
//protean:hotpath
func (t *Timer) Active() bool { return t != nil && !t.cancelled && t.index >= 0 }

// Cancel prevents the timer from firing. It reports whether the timer was
// still pending. Cancelling an already-fired or already-cancelled timer is
// a no-op.
//
//protean:hotpath
func (t *Timer) Cancel() bool {
	if t == nil || t.cancelled || t.index < 0 {
		return false
	}
	t.cancelled = true
	if t.sim != nil {
		r := t.sim.root
		r.active--
		r.maybeCompact()
	}
	return true
}

// Reschedule moves the timer to fire at virtual time at. The timer keeps
// its callback but receives a fresh sequence number, so its tie-break
// behaviour at an already-populated instant is identical to cancelling it
// and scheduling a new timer there: it fires after every event already
// scheduled for the same time in its domain. A fired or cancelled timer
// is re-armed. Unlike the cancel-and-reallocate pattern, the heap entry
// is updated in place (container/heap.Fix), so the hot rebalance path
// allocates nothing and leaves no dead timers behind.
//
//protean:hotpath
func (t *Timer) Reschedule(at float64) error {
	if t == nil || t.sim == nil || t.fn == nil {
		return errors.New("sim: reschedule of a timer not created by this simulation")
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("sim: reschedule at non-finite time %v", at)
	}
	if now := t.sim.Now(); at < now {
		return fmt.Errorf("sim: reschedule at %.9f before now %.9f", at, now)
	}
	r := t.sim.root
	wasPending := !t.cancelled && t.index >= 0
	t.at = at
	t.seq = r.seq
	r.seq++
	t.cancelled = false
	if t.index >= 0 {
		heap.Fix(&r.queue, t.index)
	} else {
		heap.Push(&r.queue, t)
	}
	if !wasPending {
		r.active++
	}
	return nil
}

// rootRank is the root's tie-break rank: after every lane.
const rootRank = math.MaxInt

// Sim is a discrete-event simulator. The zero value is not usable; use New.
type Sim struct {
	now  float64 // this domain's clock; see Now
	rng  *Stream
	root *Sim // the root itself on a root
	rank int

	// Root-only: the event heap and run state every lane shares.
	seq      uint64
	queue    timerHeap
	active   int // queued timers that are not cancelled; keeps Pending O(1)
	stopped  bool
	tracer   obs.Tracer
	executed uint64
	lanes    int // lanes created so far; the next lane's rank
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	s := &Sim{rng: newStream(uint64(seed)), rank: rootRank}
	s.root = s
	return s
}

// SetTracer installs the observability tracer every component driven by
// this simulation emits lifecycle events to. A nil tracer restores the
// no-op default. The tracer is a pure observer: it must not schedule
// events, draw randomness, or otherwise influence the run.
func (s *Sim) SetTracer(t obs.Tracer) { s.root.tracer = t }

// Tracer returns the installed tracer, or the no-op tracer when none is
// installed. Components hold a *Sim already, so this is how the tracer
// threads through gpu, queue, cluster, vm and autoscale without each
// layer growing a configuration knob. Lanes share their root's tracer,
// so events arrive in execution order: (time, rank, emission).
func (s *Sim) Tracer() obs.Tracer {
	if t := s.root.tracer; t != nil {
		return t
	}
	return obs.Nop()
}

// Now returns the current virtual time in seconds. On the root that is
// the time of the last root event or RunUntil horizon. On a lane it is
// the later of the lane's own last event and the root's clock: lane
// events do not move other domains' clocks, so quantities a node
// integrates over its own time (GPU busy fraction, utilisation) end at
// the node's last event after an unbounded Run.
func (s *Sim) Now() float64 {
	if r := s.root.now; r > s.now {
		return r
	}
	return s.now
}

// Rand returns the simulation's deterministic random stream. Subsystems
// must not draw from it directly once the run starts — derive a child
// with Rand().Child(label) at construction instead, so draw order stays
// confined to one owner.
func (s *Sim) Rand() *Stream { return s.rng }

// Executed returns the number of events the simulation has executed,
// every lane's included. This is the numerator of the events/sec
// benchmark metric.
func (s *Sim) Executed() uint64 { return s.root.executed }

// Lane creates a clock and tie-break domain on the root s. Its timers
// share the root's heap and rank after lanes created earlier (see the
// package comment); its random stream is Rand().Child("lane/"+label).
// Lanes cannot be nested.
func (s *Sim) Lane(label string) *Sim {
	if s.root != s {
		panic("sim: lanes cannot be nested")
	}
	ln := &Sim{rng: s.rng.Child("lane/" + label), root: s, rank: s.lanes}
	s.lanes++
	return ln
}

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error; scheduling exactly at Now is allowed and fires before time
// advances.
func (s *Sim) At(t float64, fn func()) (*Timer, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("sim: schedule at non-finite time %v", t)
	}
	if now := s.Now(); t < now {
		return nil, fmt.Errorf("sim: schedule at %.9f before now %.9f", t, now)
	}
	if fn == nil {
		return nil, errors.New("sim: schedule nil func")
	}
	r := s.root
	//lint:ignore hotalloc the Timer is the event being created; hot callers (gpu rebalance) reuse timers via Reschedule and only reach this for newly started jobs
	tm := &Timer{at: t, rank: s.rank, seq: r.seq, fn: fn, index: -1, sim: s}
	r.seq++
	heap.Push(&r.queue, tm)
	r.active++
	return tm, nil
}

// After schedules fn to run d seconds from now. Negative delays are
// clamped to zero.
func (s *Sim) After(d float64, fn func()) (*Timer, error) {
	if d < 0 {
		d = 0
	}
	return s.At(s.Now()+d, fn)
}

// MustAfter is After for callers that schedule with non-negative, finite
// delays computed internally; it panics on the programming errors After
// would report.
func (s *Sim) MustAfter(d float64, fn func()) *Timer {
	tm, err := s.After(d, fn)
	if err != nil {
		panic(err)
	}
	return tm
}

// Stop halts the simulation after the currently executing event returns.
// Calling Stop while no run is in progress arms the next Run/RunUntil to
// return ErrStopped before executing any event; the stop is consumed
// either way, so a subsequent run resumes normally. Stopping a lane
// stops its root.
func (s *Sim) Stop() { s.root.stopped = true }

// Pending returns the number of queued (uncancelled) events in the
// whole simulation, lanes included. The count is maintained
// incrementally on every push, pop and cancel, so this is O(1) — it
// also drives the opportunistic heap compaction below.
//
//protean:hotpath
func (s *Sim) Pending() int { return s.root.active }

// compactMinLen is the heap size below which compaction never triggers:
// lazy deletion on a tiny heap is already cheap, and rebuilding it would
// cost more than it saves.
const compactMinLen = 32

// maybeCompact rebuilds the timer heap without its cancelled entries
// once they outnumber the live ones — the Go runtime's timer-heap
// cleanup strategy. Sustained cancel/reschedule load therefore keeps
// the heap within 2× the live timer count instead of growing without
// bound until lazy deletion catches up. Rebuilding via heap.Init is
// safe for determinism: the (time, rank, sequence) order is total, so
// the pop sequence is independent of the heap's internal layout.
//
//protean:hotpath
func (s *Sim) maybeCompact() {
	n := len(s.queue)
	if n < compactMinLen || n-s.active <= s.active {
		return
	}
	live := s.queue[:0]
	for _, tm := range s.queue {
		if tm.cancelled {
			tm.index = -1
			continue
		}
		tm.index = len(live)
		//lint:ignore hotalloc refills s.queue[:0] in place; live never exceeds len(s.queue), so the append cannot grow the backing array
		live = append(live, tm)
	}
	for i := len(live); i < n; i++ {
		s.queue[i] = nil
	}
	s.queue = live
	heap.Init(&s.queue)
}

// Run executes events until the queue is empty or Stop is called. It
// returns ErrStopped in the latter case.
func (s *Sim) Run() error { return s.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= horizon, root and lane
// events alike, in (time, rank, sequence) order; each event advances
// its own domain's clock. A finite horizon then becomes the root clock,
// and so the floor of every lane's Now, unless the root clock is
// already past it: the clock never moves backwards. It returns
// ErrStopped if Stop was called, including a Stop issued before the run
// started (in which case no event executes); the stop is consumed, so
// a later run proceeds. Stop takes effect after the current event,
// lane events included. Lanes are driven by their root: RunUntil on a
// lane is an error.
func (s *Sim) RunUntil(horizon float64) error {
	if s.root != s {
		return errors.New("sim: lanes are driven by their root simulation")
	}
	if s.stopped {
		s.stopped = false
		return ErrStopped
	}
	for len(s.queue) > 0 {
		if s.stopped {
			s.stopped = false
			return ErrStopped
		}
		next := s.queue[0]
		if next.cancelled {
			heap.Pop(&s.queue)
			continue
		}
		if next.at > horizon {
			break
		}
		heap.Pop(&s.queue)
		s.active--
		next.sim.now = next.at
		s.executed++
		next.fn()
	}
	if !math.IsInf(horizon, 1) && horizon > s.now {
		s.now = horizon
	}
	return nil
}

// Ticker invokes a function on a fixed period until stopped.
type Ticker struct {
	sim      *Sim
	period   float64
	fn       func()
	timer    *Timer
	stopped  bool
	fireNext func()
}

// Every schedules fn to run every period seconds, first firing one period
// from now. Period must be positive.
func (s *Sim) Every(period float64, fn func()) (*Ticker, error) {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("sim: ticker period %v must be positive and finite", period)
	}
	if fn == nil {
		return nil, errors.New("sim: ticker nil func")
	}
	tk := &Ticker{sim: s, period: period, fn: fn}
	tk.fireNext = func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if tk.stopped {
			return
		}
		tk.timer = s.MustAfter(tk.period, tk.fireNext)
	}
	tk.timer = s.MustAfter(period, tk.fireNext)
	return tk, nil
}

// Stop cancels future ticks and drops the ticker's self-referential
// closure and timer so a stopped ticker holds no references — even
// when Stop races a tick pending at the same instant, the cancelled
// timer keeps that tick from firing.
func (t *Ticker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.timer.Cancel()
	t.timer = nil
	t.fireNext = nil
}

// timerHeap orders timers by (time, rank, sequence): at one instant,
// lanes in creation order and then the root, each in scheduling order.
type timerHeap []*Timer

var _ heap.Interface = (*timerHeap)(nil)

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	//lint:ignore floateq exact tie-break: an epsilon would merge distinct event times and reorder the queue
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	tm, ok := x.(*Timer)
	if !ok {
		// Silently dropping would desynchronise the active counter from
		// the heap; only *Timer values are ever legal here.
		panic(fmt.Sprintf("sim: timerHeap.Push of %T, want *Timer", x))
	}
	tm.index = len(*h)
	*h = append(*h, tm)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	tm.index = -1
	*h = old[:n-1]
	return tm
}
