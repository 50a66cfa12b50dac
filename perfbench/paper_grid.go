package main

import (
	"fmt"
	"strings"
	"time"

	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/experiments"
	"protean/internal/metrics"
	"protean/internal/model"
	"protean/internal/trace"
	"protean/internal/vm"
)

// paperGrid is the batch path every paper figure runs: the Figure 5
// vision grid (12 models × the primary schemes) and Figure 9b's fleet
// cells (ResNet 50, on-demand baselines, Spot Only and PROTEAN at three
// spot availabilities on the Table 3 fleet), through
// experiments.RunScenarios with exact recorders and materialised
// traces, every result held until its table is built.
func paperGrid() workload {
	return workload{
		name:      "paper_grid",
		setup:     setupPaperGrid,
		reference: referencePaperGrid,
	}
}

type gridRun struct {
	cfg     config
	tr      *tracer
	schemes []experiments.NamedFactory
	models  []*model.Model
	grid    []experiments.Scenario
	fleet   []experiments.Scenario
	// fleetProtean marks the fleet cells that run PROTEAN procurement.
	fleetProtean []bool
}

func setupPaperGrid(cfg config, tr *tracer) (prepared, error) {
	g := &gridRun{cfg: cfg, tr: tr, schemes: experiments.PrimarySchemes(), models: model.Vision()}
	rate := wikiRate(cfg.sizes.gridDuration)
	for _, m := range g.models {
		for _, sch := range g.schemes {
			label := fmt.Sprintf("%s/%s", m.Name(), sch.Name)
			g.grid = append(g.grid, experiments.Scenario{
				Label: label, Strict: m, Rate: rate, Policy: g.wrap(label, sch.Factory),
			})
		}
	}
	resnet := model.MustByName("ResNet 50")
	fleetRate := wikiRate(cfg.sizes.fleetDuration)
	for _, sch := range experiments.PrimarySchemes()[:3] {
		label := "fig9 baseline " + sch.Name
		g.fleet = append(g.fleet, experiments.Scenario{
			Label: label, Strict: resnet, Rate: fleetRate, Policy: g.wrap(label, sch.Factory),
			VM: &vm.Config{Mode: vm.ModeOnDemandOnly},
		})
		g.fleetProtean = append(g.fleetProtean, false)
	}
	for _, avail := range []vm.Availability{vm.AvailabilityHigh, vm.AvailabilityModerate, vm.AvailabilityLow} {
		for _, v := range []struct {
			name string
			mode vm.Mode
		}{{"Spot Only", vm.ModeSpotOnly}, {"PROTEAN", vm.ModeSpotPreferred}} {
			label := fmt.Sprintf("fig9 %s/%s", v.name, avail.Name)
			g.fleet = append(g.fleet, experiments.Scenario{
				Label: label, Strict: resnet, Rate: fleetRate,
				Policy: g.wrap(label, core.NewProtean(core.ProteanConfig{})),
				VM:     &vm.Config{Mode: v.mode, Availability: avail, CheckInterval: 45},
			})
			g.fleetProtean = append(g.fleetProtean, v.name == "PROTEAN")
		}
	}
	return g, nil
}

// wrap installs the timing wrapper on traced iterations.
func (g *gridRun) wrap(label string, f core.Factory) core.Factory {
	if g.tr == nil {
		return f
	}
	return g.tr.wrapFactory(label, f)
}

// params runs the scenarios one at a time: the GC then has the second
// core to itself, and wall time does not depend on how parallel
// workers happen to split the grid.
func (g *gridRun) params(duration float64) experiments.Params {
	return experiments.Params{Duration: duration, Seed: g.cfg.seed, Parallel: 1}
}

// gridAcc aggregates readings over a batch's cells.
type gridAcc struct {
	offered, completed    int
	dollars, fleetDone    float64
	goodput               []float64
	queue, exec, cold     []float64
	coldStarts, reconfigs int
	poolHits, poolMisses  uint64
	evictions             int
	query                 time.Duration
	// strict pools the strict samples of PROTEAN's Figure 5 cells. The
	// fleet cells stay out: their tails follow spot-eviction timing,
	// which swings the pooled P99 by half across seeds.
	strict metrics.Recorder
}

func (g *gridRun) run() (*outcome, error) {
	out := &outcome{modelled: map[string]float64{}}
	var acc gridAcc
	var digest strings.Builder

	// Figure 5 grid: every result held until the table is built.
	var results []*cluster.Result
	err := g.tr.time("paper_grid", "RunScenarios fig5", func() error {
		var err error
		results, err = experiments.RunScenarios(g.params(g.cfg.sizes.gridDuration), g.grid)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.attempted += len(results)
	t := &experiments.Table{
		Title:   "Figure 5: SLO compliance, Wiki trace, vision models",
		Headers: []string{"strict model"},
	}
	for _, s := range g.schemes {
		t.Headers = append(t.Headers, s.Name)
	}
	t0 := time.Now()
	for i, m := range g.models {
		row := []string{m.Name()}
		for j, s := range g.schemes {
			res := results[i*len(g.schemes)+j]
			row = append(row, fmt.Sprintf("%.2f%%", 100*res.Recorder.SLOCompliance()))
			protean := s.Name == "PROTEAN"
			acc.cell(out, g.grid[i*len(g.schemes)+j].Label, res, protean)
			if protean {
				acc.strict.Merge(res.Recorder.Strict())
			}
		}
		t.Rows = append(t.Rows, row)
	}
	acc.query += time.Since(t0)
	out.fig5 = t
	if err := t.Render(&digest); err != nil {
		return nil, err
	}
	results = nil

	// Figure 9b fleet cells.
	err = g.tr.time("paper_grid", "RunScenarios fig9b", func() error {
		var err error
		results, err = experiments.RunScenarios(g.params(g.cfg.sizes.fleetDuration), g.fleet)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.attempted += len(results)
	t0 = time.Now()
	for i, res := range results {
		acc.cell(out, g.fleet[i].Label, res, g.fleetProtean[i])
		if res.Cost == nil {
			out.fail("%s: fleet cell reported no cost", g.fleet[i].Label)
			continue
		}
		acc.dollars += res.Cost.Dollars
		acc.fleetDone += float64(res.Availability.Completed)
		fmt.Fprintf(&digest, "%s cost %.6f normalized %.6f slo %.6f\n",
			g.fleet[i].Label, res.Cost.Dollars, res.Cost.Normalized, res.Recorder.SLOCompliance())
	}
	acc.query += time.Since(t0)

	out.offered = acc.offered
	out.digest = digest.String()
	out.queryS = acc.query.Seconds()
	m := out.modelled
	m["slo_goodput"] = meanOf(acc.goodput)
	m["strict_p99_ms"] = 1000 * acc.strict.Percentile(99)
	m["dollars_per_1k"] = ratio(acc.dollars, acc.fleetDone/1000)
	m["served_frac"] = ratio(float64(acc.completed), float64(acc.offered))
	m["queue.p99_wait_ms"] = meanOf(acc.queue)
	m["gpu.p99_exec_ms"] = meanOf(acc.exec)
	m["autoscale.p99_cold_ms"] = meanOf(acc.cold)
	m["autoscale.cold_starts"] = float64(acc.coldStarts)
	m["core.reconfigs"] = float64(acc.reconfigs)
	m["pool.hit_ratio"] = ratio(float64(acc.poolHits), float64(acc.poolHits+acc.poolMisses))
	m["vm.eviction_notices"] = float64(acc.evictions)
	return out, nil
}

// cell folds one scenario result into the aggregate. Only PROTEAN's
// cells feed the SLO and latency readings; every cell feeds the
// request, pool and fleet counters.
func (a *gridAcc) cell(out *outcome, label string, res *cluster.Result, protean bool) {
	if err := checkConservation(label, res.Availability); err != nil {
		out.fail("%v", err)
	}
	a.offered += res.Availability.Offered
	a.completed += res.Availability.Completed
	a.coldStarts += res.ColdStarts
	a.reconfigs += res.Reconfigs
	a.poolHits += res.Pool.Hits
	a.poolMisses += res.Pool.Misses
	a.evictions += res.EvictionNotices
	if !protean {
		return
	}
	c := readCell(res)
	a.goodput = append(a.goodput, c.goodput)
	a.queue = append(a.queue, c.queue)
	a.exec = append(a.exec, c.exec)
	a.cold = append(a.cold, c.cold)
}

// referencePaperGrid checks the grid's Figure 5 cells against the
// fig5 harness run at the same horizon and seed.
func referencePaperGrid(cfg config, first *outcome) error {
	rep, err := experiments.Fig5SLOCompliance(experiments.Params{Duration: cfg.sizes.gridDuration, Seed: cfg.seed})
	if err != nil {
		return fmt.Errorf("fig5 harness: %w", err)
	}
	if len(rep.Tables) != 1 {
		return fmt.Errorf("fig5 harness returned %d tables", len(rep.Tables))
	}
	return checkTable(first.fig5, rep.Tables[0])
}

// microGenerate times trace.Generate alone on paper_grid's distinct
// trace configurations (one per strict model, plus the fleet's).
func microGenerate(cfg config, layers map[string]float64) error {
	var cfgs []trace.Config
	grid, fleet := cfg.sizes.gridDuration, cfg.sizes.fleetDuration
	for _, m := range model.Vision() {
		cfgs = append(cfgs, batchTraceConfig(m, wikiRate(grid), grid, cfg.seed))
	}
	cfgs = append(cfgs, batchTraceConfig(model.MustByName("ResNet 50"), wikiRate(fleet), fleet, cfg.seed))
	t0 := time.Now()
	for _, tc := range cfgs {
		if _, err := trace.Generate(tc); err != nil {
			return err
		}
	}
	layers["trace.generate_s"] = time.Since(t0).Seconds()
	return nil
}
