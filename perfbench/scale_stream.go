package main

import (
	"fmt"
	"time"

	"protean/internal/experiments"
	"protean/internal/model"
	"protean/internal/trace"
	"protean/internal/vm"
)

// scaleFactor is the `-run scale` cell the workload runs: 100× the
// base load, about 6M requests over the two-day horizon.
const scaleFactor = 100

// scaleStream is the 100× experiments.ScaleCell: arrivals streamed
// and recorders sketched, PROTEAN only, below the saturation knee.
func scaleStream() workload {
	return workload{
		name:  "scale_stream",
		setup: setupScaleStream,
	}
}

type scaleRun struct {
	p  experiments.Params
	tr *tracer
	// probeErr is the probe cell's conservation failure, if any.
	probeErr error
}

// probeHorizon is the horizon, in virtual seconds, of the cell
// scale_stream's set-up runs.
const probeHorizon = 1

// setupScaleStream runs the same cell at a one-second horizon.
// ScaleCell builds its arrival stream, simulator, cluster and policy
// inside the call, so this probe is how setup_s sees that construction
// on this workload.
func setupScaleStream(cfg config, tr *tracer) (prepared, error) {
	probe, err := experiments.ScaleCell(experiments.Params{Duration: probeHorizon, Seed: cfg.seed}, scaleFactor)
	if err != nil {
		return nil, err
	}
	return &scaleRun{
		p:        experiments.Params{Duration: cfg.sizes.scaleHorizon, Seed: cfg.seed},
		tr:       tr,
		probeErr: checkConservation("scale probe", probe.Result.Availability),
	}, nil
}

func (s *scaleRun) run() (*outcome, error) {
	var cell *experiments.ScaleCellResult
	err := s.tr.time("scale_stream", "ScaleCell", func() error {
		var err error
		cell, err = experiments.ScaleCell(s.p, scaleFactor)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: 2, modelled: map[string]float64{}}
	if s.probeErr != nil {
		out.fail("%v", s.probeErr)
	}
	res := cell.Result
	a := res.Availability
	if err := checkConservation("scale cell", a); err != nil {
		out.fail("%v", err)
	}
	t0 := time.Now()
	c := readCell(res)
	out.queryS = time.Since(t0).Seconds()
	// The cell runs no VM fleet and bills nothing. Every workload
	// reports dollars_per_1k, so here it is what the cell's fixed nodes
	// would bill on demand at Table 3's AWS rate over the horizon; it
	// moves only with the completed count.
	onDemand := float64(res.Nodes) * res.Duration / 3600 * vm.PricingAWS.OnDemandHourly
	out.offered = a.Offered
	m := out.modelled
	m["slo_goodput"] = c.goodput
	m["strict_p99_ms"] = c.strictP99
	m["dollars_per_1k"] = ratio(onDemand, float64(a.Completed)/1000)
	m["served_frac"] = a.Rate()
	m["sim.events"] = float64(cell.Events)
	m["sim.events_per_request"] = ratio(float64(cell.Events), float64(a.Offered))
	m["autoscale.cold_starts"] = float64(res.ColdStarts)
	m["core.reconfigs"] = float64(res.Reconfigs)
	m["pool.hit_ratio"] = ratio(float64(res.Pool.Hits), float64(res.Pool.Hits+res.Pool.Misses))
	out.digest = fmt.Sprintf("offered %d completed %d dropped %d slo %.9g p99 %.9g events %d pool %d/%d\n",
		a.Offered, a.Completed, a.Dropped, res.Recorder.SLOCompliance(),
		res.Recorder.Strict().Percentile(99), cell.Events, res.Pool.Hits, res.Pool.Misses)
	return out, nil
}

// nextCalls is how many Stream.Next calls trace.next_ns averages over.
const nextCalls = 1 << 20

// microNext times trace.Stream.Next alone on scale_stream's arrival
// configuration.
func microNext(cfg config, layers map[string]float64) error {
	horizon := cfg.sizes.scaleHorizon
	rate := trace.ScaleToMean(trace.Diurnal(1, trace.DefaultWikiPeakToMean, 86400),
		experiments.ScaleBaseRPS*scaleFactor, horizon)
	st, err := trace.NewStream(batchTraceConfig(model.MustByName("ResNet 50"), rate, horizon, cfg.seed))
	if err != nil {
		return err
	}
	t0 := time.Now()
	n := 0
	for ; n < nextCalls; n++ {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	if n == 0 {
		return fmt.Errorf("scale stream emitted no requests")
	}
	layers["trace.next_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return nil
}
