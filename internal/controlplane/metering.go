// Usage metering and billing: per-second rollups, GPU-slice-second
// accounting by MIG profile, slot-weighted billing, Prometheus series,
// and the deterministic rollup rendering the replay test byte-compares.
package controlplane

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"protean/internal/gpu"
	"protean/internal/obs"
	"protean/internal/pool"
)

// Billing rates. GPUSecondRate approximates an on-demand A100 at
// $3/hour; a slice is billed at its slot fraction of the full GPU.
// RequestRate is the flat per-request invocation fee.
const (
	GPUSecondRate = 3.0 / 3600
	RequestRate   = 0.00002
)

// sliceSecondRate returns the billing rate for one second on the named
// profile: Slots/TotalSlots of a full GPU second.
func sliceSecondRate(profile string) float64 {
	p, ok := gpu.ProfileByName(profile)
	if !ok {
		return GPUSecondRate
	}
	return GPUSecondRate * float64(p.Slots) / float64(gpu.TotalSlots)
}

// Window is one second of a tenant's usage.
type Window struct {
	// Second is the virtual second the window covers ([Second, Second+1)).
	Second int `json:"second"`
	// Completed counts requests finished in the window.
	Completed int `json:"completed"`
	// Dropped counts requests lost in the window.
	Dropped int `json:"dropped,omitempty"`
	// Violations counts completions over the tenant's latency target.
	Violations int `json:"violations,omitempty"`
	// SliceSeconds is GPU slice occupancy accrued in the window.
	SliceSeconds float64 `json:"sliceSeconds"`
}

// Usage is a tenant's cumulative account.
type Usage struct {
	Tenant    string `json:"tenant"`
	Class     string `json:"class"`
	Model     string `json:"model"`
	Strict    bool   `json:"strict"`
	Suspended bool   `json:"suspended"`
	// TargetMillis is the tenant's latency target.
	TargetMillis float64 `json:"targetMillis"`
	// VirtualTime is the plane clock when the snapshot was taken.
	VirtualTime float64 `json:"virtualTime"`

	Admitted  int `json:"admitted"`
	Shed      int `json:"shed"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Dropped   int `json:"dropped"`
	// SLOViolations counts completions over the latency target.
	SLOViolations int `json:"sloViolations"`
	Suspends      int `json:"suspends"`
	Resumes       int `json:"resumes"`

	// SLOAttainment is the fraction of completions within target
	// (1 when nothing completed yet).
	SLOAttainment float64 `json:"sloAttainment"`
	P50Millis     float64 `json:"p50Millis"`
	P99Millis     float64 `json:"p99Millis"`

	// SliceSecondsByProfile breaks GPU slice occupancy down by MIG
	// profile — the billing meter.
	SliceSecondsByProfile map[string]float64 `json:"sliceSecondsByProfile"`
	// GPUSeconds is slot-weighted occupancy (1 s on "1g" = 1/7 GPU s).
	GPUSeconds float64 `json:"gpuSeconds"`
	// CostDollars = Σ sliceSeconds×profileRate + completed×requestRate.
	CostDollars float64 `json:"costDollars"`

	// RecentWindows holds up to the last 60 per-second windows.
	RecentWindows []Window `json:"recentWindows,omitempty"`
}

// Usage returns a tenant's current account. In live (wall-clock) mode
// the plane syncs to the present first, so the numbers include all work
// finished by now.
func (p *Plane) Usage(tenantID string) (Usage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[tenantID]
	if !ok {
		return Usage{}, fmt.Errorf("controlplane: unknown tenant %q", tenantID)
	}
	if !p.drained {
		if err := p.advanceLocked(p.wallVT()); err != nil {
			return Usage{}, err
		}
	}
	return p.usageLocked(t), nil
}

// UsageAll returns every tenant's account in registration order.
func (p *Plane) UsageAll() ([]Usage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.drained {
		if err := p.advanceLocked(p.wallVT()); err != nil {
			return nil, err
		}
	}
	out := make([]Usage, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.usageLocked(p.tenants[id]))
	}
	return out, nil
}

func (p *Plane) usageLocked(t *tenant) Usage {
	u := Usage{
		Tenant:                t.cfg.ID,
		Class:                 t.class.Name,
		Model:                 t.model.Name(),
		Strict:                t.class.Strict,
		Suspended:             t.suspended,
		TargetMillis:          1000 * t.target,
		VirtualTime:           p.sim.Now(),
		Admitted:              t.admitted,
		Shed:                  t.shed,
		Rejected:              t.rejected,
		Completed:             t.completed,
		Dropped:               t.dropped,
		SLOViolations:         t.violations,
		Suspends:              t.suspends,
		Resumes:               t.resumes,
		SLOAttainment:         1,
		SliceSecondsByProfile: make(map[string]float64, len(t.slicePros)),
	}
	if t.completed > 0 {
		u.SLOAttainment = 1 - float64(t.violations)/float64(t.completed)
	}
	if t.recorder.Len() > 0 {
		u.P50Millis = 1000 * t.recorder.Percentile(50)
		u.P99Millis = 1000 * t.recorder.Percentile(99)
	}
	cost := float64(t.completed) * RequestRate
	// Iterate profiles in first-seen order (never map order) so the
	// billing sum is reproducible bit-for-bit.
	for _, prof := range t.slicePros {
		s := t.sliceSecs[prof]
		u.SliceSecondsByProfile[prof] = s
		pr, ok := gpu.ProfileByName(prof)
		if ok {
			u.GPUSeconds += s * float64(pr.Slots) / float64(gpu.TotalSlots)
		} else {
			u.GPUSeconds += s
		}
		cost += s * sliceSecondRate(prof)
	}
	u.CostDollars = cost
	n := t.windowCount
	lo := 0
	if n > 60 {
		lo = n - 60
	}
	u.RecentWindows = append(u.RecentWindows, t.windows[lo:n]...)
	return u
}

// RenderRollups writes a fixed-format, byte-stable usage rollup for
// every tenant plus the plane-wide decision fingerprint — the artifact
// the determinism tests compare across live runs and replays.
func (p *Plane) RenderRollups(w io.Writer) error {
	usages, err := p.UsageAll()
	if err != nil {
		return err
	}
	count, hash := p.DecisionFingerprint()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "decisions=%d fingerprint=%016x\n", count, hash)
	for _, u := range usages {
		fmt.Fprintf(bw, "tenant=%s class=%s model=%s admitted=%d shed=%d rejected=%d completed=%d dropped=%d violations=%d suspends=%d resumes=%d",
			u.Tenant, u.Class, u.Model, u.Admitted, u.Shed, u.Rejected, u.Completed, u.Dropped, u.SLOViolations, u.Suspends, u.Resumes)
		fmt.Fprintf(bw, " attainment=%s p50=%s p99=%s gpuSeconds=%s cost=%s",
			g(u.SLOAttainment), g(u.P50Millis), g(u.P99Millis), g(u.GPUSeconds), g(u.CostDollars))
		profs := make([]string, 0, len(u.SliceSecondsByProfile))
		for prof := range u.SliceSecondsByProfile {
			profs = append(profs, prof)
		}
		sort.Strings(profs)
		for _, prof := range profs {
			fmt.Fprintf(bw, " slice[%s]=%s", prof, g(u.SliceSecondsByProfile[prof]))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// g formats a float with shortest round-trip precision.
func g(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// meter owns the plane's Prometheus series (nil registry: all no-ops).
type meter struct {
	requests     *obs.CounterVec // tenant, decision
	completedVec *obs.CounterVec // tenant
	droppedVec   *obs.CounterVec // tenant
	violationsV  *obs.CounterVec // tenant
	sliceSecsVec *obs.CounterVec // tenant, profile
	suspendedVec *obs.GaugeVec   // tenant
	poolHitsG    *obs.Gauge
	poolMissesG  *obs.Gauge
}

func newMeter(reg *obs.Registry) *meter {
	if reg == nil {
		return &meter{}
	}
	return &meter{
		requests: reg.CounterVec("proteand_tenant_requests_total",
			"Ingest attempts by admission decision.", "tenant", "decision"),
		completedVec: reg.CounterVec("proteand_tenant_completed_total",
			"Requests completed per tenant.", "tenant"),
		droppedVec: reg.CounterVec("proteand_tenant_dropped_total",
			"Admitted requests lost in the cluster per tenant.", "tenant"),
		violationsV: reg.CounterVec("proteand_tenant_slo_violations_total",
			"Completions over the tenant latency target.", "tenant"),
		sliceSecsVec: reg.CounterVec("proteand_tenant_slice_seconds_total",
			"GPU slice occupancy by MIG profile per tenant.", "tenant", "profile"),
		suspendedVec: reg.GaugeVec("proteand_tenant_suspended",
			"1 while the tenant is scaled to zero.", "tenant"),
		poolHitsG: reg.Gauge("proteand_pool_hits",
			"Cumulative freelist reuses across the cluster's object pools."),
		poolMissesG: reg.Gauge("proteand_pool_misses",
			"Cumulative fresh allocations across the cluster's object pools."),
	}
}

// poolStats publishes the cluster's freelist counters. The values are
// cumulative, but arrive as absolute snapshots, so they are gauges.
func (m *meter) poolStats(st pool.Stats) {
	if m.poolHitsG == nil {
		return
	}
	m.poolHitsG.Set(float64(st.Hits))
	m.poolMissesG.Set(float64(st.Misses))
}

func (m *meter) registerTenant(id string) {
	if m.requests == nil {
		return
	}
	// Materialize the series so /metrics shows the tenant immediately.
	m.requests.With(id, OutcomeAdmit).Add(0)
	m.completedVec.With(id).Add(0)
	m.suspendedVec.With(id).Set(0)
}

func (m *meter) decision(id, outcome string, n int) {
	if m.requests == nil {
		return
	}
	m.requests.With(id, outcome).Add(float64(n))
}

func (m *meter) completed(id string, n int) {
	if m.completedVec == nil {
		return
	}
	m.completedVec.With(id).Add(float64(n))
}

func (m *meter) dropped(id string, n int) {
	if m.droppedVec == nil {
		return
	}
	m.droppedVec.With(id).Add(float64(n))
}

func (m *meter) violations(id string, n int) {
	if m.violationsV == nil {
		return
	}
	m.violationsV.With(id).Add(float64(n))
}

func (m *meter) sliceSeconds(id, profile string, s float64) {
	if m.sliceSecsVec == nil {
		return
	}
	if profile == "" {
		profile = "unknown"
	}
	m.sliceSecsVec.With(id, profile).Add(s)
}

func (m *meter) suspended(id string, v bool) {
	if m.suspendedVec == nil {
		return
	}
	g := 0.0
	if v {
		g = 1
	}
	m.suspendedVec.With(id).Set(g)
}
