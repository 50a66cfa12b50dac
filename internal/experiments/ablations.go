package experiments

import (
	"fmt"

	"protean/internal/autoscale"
	"protean/internal/cluster"
	"protean/internal/core"
	"protean/internal/model"
	"protean/internal/reconfig"
	"protean/internal/sim"
	"protean/internal/trace"
)

// AblationResult summarizes a with/without comparison of one PROTEAN
// design choice.
type AblationResult struct {
	// Name labels the design choice.
	Name string
	// With and Without are the SLO compliance values.
	With, Without float64
	// WithP99 and WithoutP99 are the strict P99 latencies in seconds.
	WithP99, WithoutP99 float64
}

// String renders the comparison.
func (r AblationResult) String() string {
	return fmt.Sprintf("%s: with %.2f%% (P99 %s) / without %.2f%% (P99 %s)",
		r.Name, r.With*100, ms(r.WithP99), r.Without*100, ms(r.WithoutP99))
}

// ablationKind selects the workload shape that exposes each design
// choice.
type ablationKind int

const (
	// ablationSteady: an HI strict model under the diurnal Wiki trace —
	// placement and keep-alive dominate.
	ablationSteady ablationKind = iota + 1
	// ablationBursty: the erratic Twitter trace — queueing appears and
	// request reordering pays off.
	ablationBursty
	// ablationShifting: rotating heavy BE models (the Figure 7
	// scenario) — reconfiguration and prediction pay off.
	ablationShifting
)

// ablationScenario runs one design-choice workload; label names its
// trace when the run is traced.
func ablationScenario(p Params, label string, kind ablationKind, factory core.Factory, scaler autoscale.Config) (*cluster.Result, error) {
	p = p.withDefaults()
	strict := model.MustByName("VGG 19")
	pool := model.OppositeClassPool(strict)
	rate := wikiRate(p.Duration)
	rotate := 0.0
	switch kind {
	case ablationBursty:
		rate = twitterRate(p.Duration, p.Seed)
	case ablationShifting:
		strict = model.MustByName("ShuffleNet V2")
		pool = model.VisionHI()
		rotate = 10
	}
	st, err := trace.NewStream(trace.Config{
		Rate:     rate,
		Mix:      trace.Mix{StrictFrac: 0.5, Strict: strict, BEPool: pool, RotatePeriod: rotate},
		Duration: p.Duration,
		Seed:     p.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := sim.New(p.Seed)
	if tr := p.tracer(label); tr != nil {
		s.SetTracer(tr)
	}
	c, err := cluster.New(s, cluster.Config{
		Nodes:        p.Nodes,
		Policy:       factory,
		Warmup:       p.Warmup,
		PreWarm:      append(pool, strict),
		PreWarmCount: 4,
		Scaler:       scaler,
	})
	if err != nil {
		return nil, err
	}
	return c.Run(st, p.Duration)
}

// runAblation executes the with/without pair.
func runAblation(p Params, kind ablationKind, name string, with, without core.Factory, scalerWith, scalerWithout autoscale.Config) (AblationResult, error) {
	resWith, err := ablationScenario(p, "ablation "+name+" with", kind, with, scalerWith)
	if err != nil {
		return AblationResult{}, fmt.Errorf("ablation %s (with): %w", name, err)
	}
	resWithout, err := ablationScenario(p, "ablation "+name+" without", kind, without, scalerWithout)
	if err != nil {
		return AblationResult{}, fmt.Errorf("ablation %s (without): %w", name, err)
	}
	return AblationResult{
		Name:       name,
		With:       resWith.Recorder.SLOCompliance(),
		Without:    resWithout.Recorder.SLOCompliance(),
		WithP99:    resWith.Recorder.Strict().Percentile(99),
		WithoutP99: resWithout.Recorder.Strict().Percentile(99),
	}, nil
}

// AblationReordering compares PROTEAN with and without strict-first
// request reordering (§4.1).
func AblationReordering(p Params) (AblationResult, error) {
	return runAblation(p, ablationBursty, "request reordering",
		core.NewProtean(core.ProteanConfig{}),
		core.NewProtean(core.ProteanConfig{DisableReorder: true}),
		autoscale.Config{}, autoscale.Config{})
}

// AblationReconfig compares dynamic Algorithm 2 reconfiguration against
// a pinned (4g, 3g) geometry.
func AblationReconfig(p Params) (AblationResult, error) {
	return runAblation(p, ablationShifting, "dynamic reconfiguration",
		core.NewProtean(core.ProteanConfig{}),
		core.NewProtean(core.ProteanConfig{DisableDynamicReconfig: true}),
		autoscale.Config{}, autoscale.Config{})
}

// AblationPlacement compares slowdown-factor (η) strict placement
// against always-largest-slice placement.
func AblationPlacement(p Params) (AblationResult, error) {
	return runAblation(p, ablationSteady, "slowdown-aware placement",
		core.NewProtean(core.ProteanConfig{}),
		core.NewProtean(core.ProteanConfig{NaiveStrictPlacement: true}),
		autoscale.Config{}, autoscale.Config{})
}

// AblationKeepAlive compares delayed container termination (§4.2)
// against immediate scale-down.
func AblationKeepAlive(p Params) (AblationResult, error) {
	return runAblation(p, ablationSteady, "delayed termination",
		core.NewProtean(core.ProteanConfig{}),
		core.NewProtean(core.ProteanConfig{}),
		autoscale.Config{}, autoscale.Config{Immediate: true})
}

// AblationPredictor compares the EWMA BE-load predictor against a
// last-value predictor (alpha = 1).
func AblationPredictor(p Params) (AblationResult, error) {
	return runAblation(p, ablationShifting, "EWMA prediction",
		core.NewProtean(core.ProteanConfig{}),
		core.NewProtean(core.ProteanConfig{Reconfig: reconfig.Config{Alpha: 1}}),
		autoscale.Config{}, autoscale.Config{})
}
