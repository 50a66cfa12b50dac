// Package autoscale implements PROTEAN's container autoscaling (§4.2):
// reactive scale-up spawns one GPU-accelerated container per request
// batch (paying a cold start when no warm container exists), and delayed
// termination keeps surplus warm containers alive for an extended
// keep-alive period (~10 minutes) before reclaiming them, cutting cold
// starts by up to 98% versus immediate scale-down.
package autoscale

import (
	"errors"
	"fmt"
	"sort"

	"protean/internal/obs"
	"protean/internal/sim"
)

// Config tunes the scaler.
type Config struct {
	// ColdStart is the container boot latency in seconds (default 4 s).
	ColdStart float64
	// KeepAlive is the delayed-termination window in seconds
	// (default 600 s).
	KeepAlive float64
	// Immediate terminates containers as soon as their batch finishes
	// (the scale-down-immediately baseline of the §4.2 comparison).
	Immediate bool
}

func (c *Config) applyDefaults() {
	if c.ColdStart <= 0 {
		c.ColdStart = 4
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = 600
	}
}

// pool tracks containers for one model on one node.
type pool struct {
	// idleSince holds, per idle warm container, the time it went idle
	// (ascending).
	idleSince []float64
	busy      int
	// busyStart holds the acquire time of each in-flight container
	// (LIFO, matching Release order for same-batch symmetry).
	busyStart []float64
	// busySeconds accumulates completed busy intervals — the metered
	// GPU-seconds this model has actually consumed on the node.
	busySeconds float64
}

// Scaler manages per-model container pools for one worker node.
type Scaler struct {
	// Node labels the scaler's worker in traced autoscale events (set by
	// the cluster; standalone scalers report node 0).
	Node int

	cfg Config
	sim *sim.Sim

	pools      map[string]*pool
	coldStarts int
	spawned    int

	// costPressure, when set, makes Sweep reclaim every idle container
	// immediately instead of waiting out the keep-alive window — the
	// budget-exhaustion response. It changes only Sweep (a monitor-tick,
	// root-context call), never the lazy per-Acquire expiry, so lane
	// timer affinity is untouched.
	costPressure bool
}

// NewScaler returns a scaler bound to the node's virtual clock. In the
// cluster s is the node's lane: the scaler reads Now and
// emits trace events but schedules no timers of its own (keep-alive
// expiry is evaluated lazily on access), so it inherits the lane's
// timer affinity for free.
func NewScaler(s *sim.Sim, cfg Config) (*Scaler, error) {
	if s == nil {
		return nil, errors.New("autoscale: nil sim")
	}
	cfg.applyDefaults()
	return &Scaler{cfg: cfg, sim: s, pools: make(map[string]*pool)}, nil
}

// Acquire reserves one container for a batch of the given model,
// spawning a new container when no warm one is available. It returns the
// cold-start delay the batch must pay (0 for a warm container).
func (s *Scaler) Acquire(modelName string) (float64, error) {
	if modelName == "" {
		return 0, fmt.Errorf("autoscale: empty model name")
	}
	p := s.pools[modelName]
	if p == nil {
		p = &pool{}
		s.pools[modelName] = p
	}
	s.expire(modelName, p)
	if n := len(p.idleSince); n > 0 {
		// Reuse the most recently idled container (LIFO) so the oldest
		// ones age out.
		p.idleSince = p.idleSince[:n-1]
		p.busy++
		p.busyStart = append(p.busyStart, s.sim.Now())
		return 0, nil
	}
	s.coldStarts++
	s.spawned++
	p.busy++
	p.busyStart = append(p.busyStart, s.sim.Now())
	return s.cfg.ColdStart, nil
}

// Release returns a container to the pool after its batch completes.
func (s *Scaler) Release(modelName string) error {
	p := s.pools[modelName]
	if p == nil || p.busy <= 0 {
		return fmt.Errorf("autoscale: release without acquire for %q", modelName)
	}
	p.busy--
	p.settleBusy(s.sim.Now())
	if s.cfg.Immediate {
		s.spawned--
		return nil
	}
	p.idleSince = append(p.idleSince, s.sim.Now())
	return nil
}

// settleBusy closes the most recent busy interval, folding it into the
// pool's metered busy-seconds.
func (p *pool) settleBusy(now float64) {
	if n := len(p.busyStart); n > 0 {
		p.busySeconds += now - p.busyStart[n-1]
		p.busyStart = p.busyStart[:n-1]
	}
}

// Abort cancels an Acquire whose container load failed before serving
// (injected cold-start failure): the reservation is released and the
// half-booted container is torn down rather than returned to the pool,
// so the retry pays a fresh cold start unless another warm container
// freed up meanwhile.
func (s *Scaler) Abort(modelName string) error {
	p := s.pools[modelName]
	if p == nil || p.busy <= 0 {
		return fmt.Errorf("autoscale: abort without acquire for %q", modelName)
	}
	p.busy--
	p.settleBusy(s.sim.Now())
	s.spawned--
	return nil
}

// expire reclaims idle containers past the keep-alive window (delayed
// termination).
func (s *Scaler) expire(modelName string, p *pool) {
	cutoff := s.sim.Now() - s.cfg.KeepAlive
	drop := 0
	for drop < len(p.idleSince) && p.idleSince[drop] <= cutoff {
		drop++
	}
	if drop > 0 {
		p.idleSince = p.idleSince[drop:]
		s.spawned -= drop
		s.emit("expire", modelName, drop)
	}
}

// emit traces one autoscale decision when tracing is enabled.
func (s *Scaler) emit(verb, modelName string, containers int) {
	tr := s.sim.Tracer()
	if !tr.Enabled() {
		return
	}
	ev := obs.At(s.sim.Now(), obs.KindAutoscale)
	ev.Node = s.Node
	ev.Model = modelName
	ev.Detail = verb
	ev.Value = float64(containers)
	tr.Emit(ev)
}

// Sweep expires idle containers across all pools (called on monitor
// ticks), visiting pools in sorted name order for reproducibility.
// Under cost pressure it reclaims every idle container regardless of
// keep-alive, shedding warm capacity the moment the budget runs dry.
func (s *Scaler) Sweep() {
	names := make([]string, 0, len(s.pools))
	for name := range s.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := s.pools[name]
		if s.costPressure {
			if n := len(p.idleSince); n > 0 {
				p.idleSince = p.idleSince[:0]
				s.spawned -= n
				s.emit("pressure", name, n)
			}
			continue
		}
		s.expire(name, p)
	}
}

// SetCostPressure toggles budget-exhaustion mode: while on, Sweep
// reclaims all idle warm containers instead of honoring the keep-alive
// window, trading future cold starts for an immediate stop to idle
// spend. Called from the cluster monitor (root context) when the
// marketplace budget alarm trips.
func (s *Scaler) SetCostPressure(on bool) { s.costPressure = on }

// CostPressure reports whether budget-exhaustion mode is active.
func (s *Scaler) CostPressure() bool { return s.costPressure }

// ModelUsage is one model's metered consumption on a node.
type ModelUsage struct {
	// Model is the model name.
	Model string
	// BusySeconds is the cumulative container-busy time: the seconds
	// containers of this model spent executing batches (in-flight work
	// is counted up to the read time).
	BusySeconds float64
}

// Usage reports metered busy-seconds per model, sorted by model name.
// It is a read-only snapshot: in-flight busy intervals are valued at
// the current clock without being settled.
func (s *Scaler) Usage() []ModelUsage {
	now := s.sim.Now()
	names := make([]string, 0, len(s.pools))
	for name := range s.pools {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ModelUsage, 0, len(names))
	for _, name := range names {
		p := s.pools[name]
		busy := p.busySeconds
		for _, start := range p.busyStart {
			busy += now - start
		}
		out = append(out, ModelUsage{Model: name, BusySeconds: busy})
	}
	return out
}

// Prewarm provisions n idle warm containers for a model up front
// (PROTEAN's conservative container provisioning).
func (s *Scaler) Prewarm(modelName string, n int) {
	if modelName == "" || n <= 0 {
		return
	}
	p := s.pools[modelName]
	if p == nil {
		p = &pool{}
		s.pools[modelName] = p
	}
	for i := 0; i < n; i++ {
		p.idleSince = append(p.idleSince, s.sim.Now())
		s.spawned++
	}
	s.emit("prewarm", modelName, n)
}

// Drain reclaims every idle warm container for a model immediately,
// regardless of its keep-alive deadline, and returns how many were
// reclaimed — the control plane's scale-to-zero hook. Busy containers
// are untouched; they leave through Release and the usual expiry once
// their batches complete. A drained pool pays a fresh cold start on the
// next Acquire (wake-up goes through the ordinary cold-start model).
func (s *Scaler) Drain(modelName string) int {
	p := s.pools[modelName]
	if p == nil || len(p.idleSince) == 0 {
		return 0
	}
	n := len(p.idleSince)
	p.idleSince = p.idleSince[:0]
	s.spawned -= n
	s.emit("drain", modelName, n)
	return n
}

// ColdStarts returns the number of cold starts incurred so far.
func (s *Scaler) ColdStarts() int { return s.coldStarts }

// Warm returns the number of live containers (busy + idle) for a model.
func (s *Scaler) Warm(modelName string) int {
	p := s.pools[modelName]
	if p == nil {
		return 0
	}
	s.expire(modelName, p)
	return p.busy + len(p.idleSince)
}

// Live returns the total number of live containers on the node.
func (s *Scaler) Live() int {
	s.Sweep()
	return s.spawned
}
