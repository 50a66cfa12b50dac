package main

import (
	"fmt"

	"protean/internal/cluster"
	"protean/internal/experiments"
	"protean/internal/model"
	"protean/internal/trace"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup does everything that precedes the first timed call and
	// returns that call. tr is nil for untraced iterations.
	setup func(cfg config, tr *tracer) (prepared, error)
	// reference, when set, checks the first iteration's outcome against
	// an independent path through the program.
	reference func(cfg config, first *outcome) error
}

// prepared is a set-up iteration; run performs the timed call.
type prepared interface {
	run() (*outcome, error)
}

// outcome is what one timed iteration produced.
type outcome struct {
	// attempted counts operations (scenario runs, plane calls);
	// failures lists every failed output check.
	attempted int
	failures  []string
	// offered is the number of simulated requests offered.
	offered int
	// modelled holds every deterministic reading, end-to-end and
	// per-layer; repeats must reproduce it bit for bit.
	modelled map[string]float64
	// digest is a rendering of the outputs (tables, rollups) that
	// repeats must reproduce byte for byte.
	digest string
	// fig5 is paper_grid's Figure 5 table, for the reference check.
	fig5 *experiments.Table
	// queryS is host time spent querying recorders for the modelled
	// readings (metrics.query_s).
	queryS float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workloads lists every workload in BENCHMARK.json order.
func workloads() []workload {
	return []workload{paperGrid(), scaleStream(), planeTenants()}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// wikiRate is the Figure 5/9 arrival profile: the diurnal Wiki trace
// scaled to the vision mean over the horizon.
func wikiRate(duration float64) trace.RateFn {
	return trace.ScaleToMean(trace.Diurnal(1, trace.DefaultWikiPeakToMean, duration),
		experiments.VisionMeanRPS, duration)
}

// batchTraceConfig is the trace a batch scenario with this strict model
// and rate generates: experiments' defaults of a 0.5 strict fraction
// and the opposite-class best-effort pool.
func batchTraceConfig(strict *model.Model, rate trace.RateFn, duration float64, seed int64) trace.Config {
	return trace.Config{
		Rate: rate,
		Mix: trace.Mix{
			StrictFrac: 0.5,
			Strict:     strict,
			BEPool:     model.OppositeClassPool(strict),
		},
		Duration: duration,
		Seed:     seed,
	}
}

// cellReadings are per-result readings the batch workloads aggregate.
type cellReadings struct {
	goodput, strictP99 float64
	// queue, exec and cold decompose the strict P99 request's latency
	// as Figure 6 does: queueing, execution (minimum + deficiency +
	// interference) and cold start, in ms.
	queue, exec, cold float64
}

// readCell queries one held result through the recorder's own API, as
// the experiment harnesses do. Sketch-mode recorders keep no
// per-sample breakdowns, so the decomposition reads 0 there.
func readCell(res *cluster.Result) cellReadings {
	strict := res.Recorder.Strict()
	b := strict.BreakdownAtPercentile(99)
	return cellReadings{
		goodput:   res.Recorder.SLOCompliance() * res.Availability.Rate(),
		strictP99: 1000 * strict.Percentile(99),
		queue:     1000 * b.Queue,
		exec:      1000 * (b.MinPossible + b.Deficiency + b.Interference),
		cold:      1000 * b.ColdStart,
	}
}

// meanOf averages xs (0 for none).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
