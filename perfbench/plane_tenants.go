package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"protean/internal/controlplane"
	"protean/internal/experiments"
)

// Live-plane schedule: an open loop in virtual time. Every tick each
// tenant offers a batch sized from its instantaneous rate; every
// virtual second the caller reads every tenant's usage.
//
// One plane's admission outcome swings widely with the seed: its
// backlog predictor can lock into refusing everything at any point. So
// the workload runs sizes.planeCells independent planes ("cells") of
// planeTenantN tenants each, one after another, and pools their
// readings: the pooled readings of a run are steady while each cell
// still shows the swing.
const (
	planeTick    = 0.1 // virtual seconds between ingest rounds
	planeTenantN = 16
	// planePeak is the offered-load multiple at mid-horizon; the
	// schedule swings from 1× the soak rates up to planePeak× and back.
	planePeak = 4.0
	// burstProb is the share of ticks that are 3× bursts in a cell.
	burstProb = 0.15
)

// planeTenants drives controlplane.Plane in manual mode with the
// marketplace on: per cell, 16 tenants across gold/silver/bronze with
// the soak mix's diurnal swing, 3× bursts and sparse tenants that scale
// to zero and wake again.
func planeTenants() workload {
	return workload{
		name:  "plane_tenants",
		setup: setupPlaneTenants,
	}
}

// planeTenant is one synthetic tenant's traffic plan (the soak mix).
type planeTenant struct {
	cfg     controlplane.TenantConfig
	baseRPS float64
	phase   float64
	// sparse tenants go quiet between 40% and 90% of the horizon.
	sparse bool
}

var planeModels = []string{"ResNet 18", "BERT", "MobileNet", "DistilBERT"}

func planTenants() []planeTenant {
	classes := []string{"gold", "silver", "bronze"}
	rates := map[string]float64{"gold": 40, "silver": 25, "bronze": 15}
	out := make([]planeTenant, 0, planeTenantN)
	for i := 0; i < planeTenantN; i++ {
		class := classes[i%len(classes)]
		t := planeTenant{
			cfg: controlplane.TenantConfig{
				ID: fmt.Sprintf("tenant-%02d", i), Model: planeModels[i%len(planeModels)], Class: class,
			},
			baseRPS: rates[class],
			phase:   2 * math.Pi * float64(i) / planeTenantN,
			sparse:  i%4 == 3,
		}
		if t.sparse {
			t.cfg.KeepWarmSeconds = 1
		}
		out = append(out, t)
	}
	return out
}

// rateAt is the tenant's offered rate at horizon fraction frac.
func (t planeTenant) rateAt(frac float64, burst bool) float64 {
	if t.sparse && frac > 0.4 && frac < 0.9 {
		return 0
	}
	load := 1 + (planePeak-1)*math.Pow(math.Sin(math.Pi*frac), 2)
	r := load * t.baseRPS * (1 + 0.6*math.Sin(2*math.Pi*frac+t.phase))
	if burst {
		r *= 3
	}
	return math.Max(0, r)
}

// planeIngest is one scheduled IngestAt call.
type planeIngest struct {
	vt     float64
	tenant int
	n      int
}

// planSchedule draws one cell's ingest schedule from its seed.
func planSchedule(tenants []planeTenant, horizon float64, seed int64) []planeIngest {
	rng := rand.New(rand.NewSource(seed))
	ticks := int(math.Round(horizon / planeTick))
	var out []planeIngest
	for k := 0; k < ticks; k++ {
		vt := float64(k) * planeTick
		frac := vt / horizon
		burst := rng.Float64() < burstProb
		for i, t := range tenants {
			mean := t.rateAt(frac, burst) * planeTick
			n := int(mean)
			if rng.Float64() < mean-float64(n) {
				n++
			}
			if n > 0 {
				out = append(out, planeIngest{vt: vt, tenant: i, n: n})
			}
		}
	}
	return out
}

type planeRun struct {
	horizon float64
	tr      *tracer
	tenants []planeTenant
	cells   []*planeCell
}

// planeCell is one plane with its schedule.
type planeCell struct {
	plane    *controlplane.Plane
	schedule []planeIngest
}

func setupPlaneTenants(cfg config, tr *tracer) (prepared, error) {
	r := &planeRun{horizon: cfg.sizes.planeHorizon, tr: tr, tenants: planTenants()}
	for c := 0; c < cfg.sizes.planeCells; c++ {
		seed := experiments.SubSeed(cfg.seed, c)
		p, err := controlplane.New(controlplane.Options{Seed: seed, Market: true, KeepWarmDefault: 2})
		if err != nil {
			return nil, err
		}
		for _, t := range r.tenants {
			if err := p.RegisterTenant(t.cfg); err != nil {
				return nil, err
			}
		}
		r.cells = append(r.cells, &planeCell{plane: p, schedule: planSchedule(r.tenants, r.horizon, seed)})
	}
	return r, nil
}

// planeAcc pools readings over cells.
type planeAcc struct {
	total, admitted, completed, good, coldStarts int
	rejectBacklog, rejectRate, shed              int
	dollars, ticks, binds, leases, orphans       float64
	strictP99                                    []float64
	digest                                       strings.Builder
}

func (r *planeRun) run() (*outcome, error) {
	out := &outcome{modelled: map[string]float64{}}
	var acc planeAcc
	for i, c := range r.cells {
		if err := r.runCell(out, &acc, i, c); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		r.cells[i] = nil // release the drained plane
	}
	out.offered = acc.total
	out.digest = acc.digest.String()

	m := out.modelled
	// Every tenant class carries a latency target (bronze's is soft), so
	// goodput is completions within target over everything offered.
	m["slo_goodput"] = ratio(float64(acc.good), float64(acc.total))
	m["strict_p99_ms"] = median(acc.strictP99)
	m["served_frac"] = ratio(float64(acc.completed), float64(acc.total))
	m["dollars_per_1k"] = ratio(acc.dollars, float64(acc.completed)/1000)
	m["autoscale.cold_starts"] = float64(acc.coldStarts)
	m["controlplane.admit_ratio"] = ratio(float64(acc.admitted), float64(acc.total))
	m["controlplane.rejected_backlog"] = float64(acc.rejectBacklog)
	m["controlplane.rejected_rate_limit"] = float64(acc.rejectRate)
	m["controlplane.shed"] = float64(acc.shed)
	m["market.price_ticks"] = acc.ticks
	m["market.lease_bind_ratio"] = ratio(acc.binds, acc.leases)
	m["market.orphans"] = acc.orphans
	return out, nil
}

// runCell drives one cell through its schedule, reading usage every
// virtual second, drains it, checks its books and pools its readings.
func (r *planeRun) runCell(out *outcome, acc *planeAcc, idx int, c *planeCell) error {
	p := c.plane
	offered := make(map[string]int, len(r.tenants))
	nextRead := 1.0
	readUsage := func() error {
		if err := p.AdvanceTo(nextRead); err != nil {
			return err
		}
		out.attempted++
		return r.tr.time("plane_tenants", "UsageAll", func() error {
			_, err := p.UsageAll()
			return err
		})
	}
	for _, in := range c.schedule {
		for ; in.vt >= nextRead; nextRead++ {
			if err := readUsage(); err != nil {
				return err
			}
		}
		id := r.tenants[in.tenant].cfg.ID
		var dec controlplane.Decision
		out.attempted++
		if err := r.tr.time("plane_tenants", "IngestAt", func() error {
			var err error
			dec, err = p.IngestAt(in.vt, id, in.n)
			return err
		}); err != nil {
			return err
		}
		offered[id] += in.n
		switch {
		case dec.Outcome == controlplane.OutcomeShed:
			acc.shed += in.n
		case dec.Outcome == controlplane.OutcomeReject && dec.Reason == controlplane.ReasonBacklog:
			acc.rejectBacklog += in.n
		case dec.Outcome == controlplane.OutcomeReject:
			acc.rejectRate += in.n
		}
	}
	for ; nextRead <= r.horizon; nextRead++ {
		if err := readUsage(); err != nil {
			return err
		}
	}
	var sum *controlplane.Summary
	out.attempted++
	if err := r.tr.time("plane_tenants", "Drain", func() error {
		var err error
		sum, err = p.Drain()
		return err
	}); err != nil {
		return err
	}
	for _, e := range checkPlane(offered, sum.Tenants) {
		out.fail("cell %d: %v", idx, e)
	}
	for _, u := range sum.Tenants {
		acc.total += u.Admitted + u.Shed + u.Rejected
		acc.admitted += u.Admitted
		acc.completed += u.Completed
		acc.good += u.Completed - u.SLOViolations
		if u.Strict && u.Completed > 0 {
			acc.strictP99 = append(acc.strictP99, u.P99Millis)
		}
		fmt.Fprintf(&acc.digest, "%d %s admitted %d shed %d rejected %d completed %d dropped %d violations %d p99 %.9g cost %.9g\n",
			idx, u.Tenant, u.Admitted, u.Shed, u.Rejected, u.Completed, u.Dropped, u.SLOViolations, u.P99Millis, u.CostDollars)
	}
	acc.coldStarts += sum.ColdStarts
	decisions, fp := p.DecisionFingerprint()
	fmt.Fprintf(&acc.digest, "%d decisions %d fingerprint %016x\n", idx, decisions, fp)
	mk := sum.Market
	if mk == nil {
		out.fail("cell %d: plane with Market on reported no market summary", idx)
		return nil
	}
	acc.dollars += mk.TotalDollars
	for _, pr := range mk.Prices {
		acc.ticks += float64(pr.Ticks)
	}
	acc.binds += float64(mk.Stats.Binds)
	acc.leases += float64(mk.Stats.Requests)
	acc.orphans += float64(mk.Stats.Orphans)
	return nil
}
