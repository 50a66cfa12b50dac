package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
)

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A workload that does not exercise a layer reports 0 for it.
// strict_p99_ms is a whole-request reading kept here rather than with
// the end-to-end metrics: scale_stream's sketched P99 is quantised to
// one value on every seed.
var perLayer = []struct{ name, unit string }{
	{"strict_p99_ms", "ms"},
	{"trace.cpu_s", "s"}, {"trace.generate_s", "s"}, {"trace.next_ns", "ns"},
	{"queue.cpu_s", "s"}, {"queue.p99_wait_ms", "ms"},
	{"sim.cpu_s", "s"}, {"sim.events", "count"}, {"sim.events_per_request", "ratio"},
	{"gpu.cpu_s", "s"}, {"gpu.p99_exec_ms", "ms"},
	{"core.cpu_s", "s"}, {"core.place_calls", "count"}, {"core.place_ns_p50", "ns"},
	{"core.place_ns_p99", "ns"}, {"core.place_failed", "count"}, {"core.geometry_calls", "count"},
	{"core.reconfigs", "count"},
	{"metrics.cpu_s", "s"}, {"metrics.cum_cpu_s", "s"}, {"metrics.query_s", "s"},
	{"cluster.cpu_s", "s"}, {"cluster.cum_cpu_s", "s"},
	{"autoscale.cpu_s", "s"}, {"autoscale.cold_starts", "count"}, {"autoscale.p99_cold_ms", "ms"},
	{"pool.cpu_s", "s"}, {"pool.hit_ratio", "ratio"},
	{"vm.cpu_s", "s"}, {"vm.eviction_notices", "count"},
	{"market.cpu_s", "s"}, {"market.price_ticks", "count"}, {"market.lease_bind_ratio", "ratio"},
	{"market.orphans", "count"},
	{"controlplane.cpu_s", "s"}, {"controlplane.ingest_us_p50", "us"}, {"controlplane.ingest_us_p99", "us"},
	{"controlplane.usage_read_us_p99", "us"}, {"controlplane.drain_s", "s"},
	{"controlplane.admit_ratio", "ratio"}, {"controlplane.rejected_backlog", "count"},
	{"controlplane.rejected_rate_limit", "count"}, {"controlplane.shed", "count"},
	{"runtime.cpu_s", "s"}, {"runtime.gc_cpu_s", "s"}, {"runtime.alloc_mb", "MiB"}, {"runtime.gc_cycles", "count"},
	{"bench.profile_attributed", "ratio"}, {"bench.trace_overhead_s", "s"}, {"wall_s", "s"},
}

// runtimeCounters are the runtime's cumulative GC and allocation
// counters.
var runtimeCounters = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func counterValue(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return float64(s.Value.Uint64())
}

// measureTraced runs the workload once untraced and once traced, checks
// both, and reports the per-layer metrics: modelled readings, GC
// counters and elapsed time from the untraced iteration, spans and the
// CPU profile from the traced one.
func measureTraced(w workload, cfg config, logw io.Writer) (*report, error) {
	var acc tally
	before := readRuntime()
	plain, outPlain, err := iterate(w, cfg, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC() // settle the GC CPU estimate at a cycle boundary
	after := readRuntime()
	acc.add(outPlain)
	fmt.Fprintf(logw, "%s untraced: wall %.3fs cpu %.3fs\n", w.name, plain.wall, plain.cpu)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	traced, outTraced, err := iterate(w, cfg, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	acc.add(outTraced)
	fmt.Fprintf(logw, "%s traced: wall %.3fs cpu %.3fs\n", w.name, traced.wall, traced.cpu)
	// Tracing must only observe: the traced iteration, timing wrapper
	// included, reproduces the untraced one exactly.
	acc.check("traced repeat", checkRepeat(outPlain.modelled, outTraced.modelled))
	acc.check("traced repeat digest", checkDigest(outPlain.digest, outTraced.digest))
	if w.reference != nil {
		acc.check("reference", w.reference(cfg, outPlain))
	}

	vals := map[string]float64{}
	for k, v := range outPlain.modelled {
		vals[k] = v
	}
	vals["metrics.query_s"] = outPlain.queryS
	vals["bench.trace_overhead_s"] = traced.cpu - plain.cpu
	vals["wall_s"] = plain.wall
	vals["runtime.gc_cpu_s"] = counterValue(after[0]) - counterValue(before[0])
	vals["runtime.alloc_mb"] = (counterValue(after[1]) - counterValue(before[1])) / (1 << 20)
	vals["runtime.gc_cycles"] = counterValue(after[2]) - counterValue(before[2])

	att, err := attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for l, s := range att.self {
		vals[l+".cpu_s"] = s
	}
	vals["metrics.cum_cpu_s"] = att.cum["metrics"]
	vals["cluster.cum_cpu_s"] = att.cum["cluster"]
	vals["bench.profile_attributed"] = att.attributedFrac()

	vals["core.place_failed"] = float64(tr.placeFailed())
	tr.fold()
	place := tr.byName("Place")
	vals["core.place_calls"] = float64(place.count)
	vals["core.place_ns_p50"] = float64(place.hist.quantile(0.50))
	vals["core.place_ns_p99"] = float64(place.hist.quantile(0.99))
	vals["core.geometry_calls"] = float64(tr.byName("DesiredGeometry").count)
	ingest := tr.byName("IngestAt")
	vals["controlplane.ingest_us_p50"] = float64(ingest.hist.quantile(0.50)) / 1e3
	vals["controlplane.ingest_us_p99"] = float64(ingest.hist.quantile(0.99)) / 1e3
	vals["controlplane.usage_read_us_p99"] = float64(tr.byName("UsageAll").hist.quantile(0.99)) / 1e3
	vals["controlplane.drain_s"] = tr.byName("Drain").total.Seconds()

	if err := microLayers(cfg, vals); err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, tr, att, prof.Bytes()); err != nil {
		return nil, err
	}
	m := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = metric{vals[pl.name], pl.unit}
	}
	acc.logFailures(logw)
	return acc.report(m), nil
}

// microLayers times single-layer calls alone: trace generation on the
// grid's configurations and Stream.Next on the scale cell's.
func microLayers(cfg config, vals map[string]float64) error {
	if err := microGenerate(cfg, vals); err != nil {
		return err
	}
	return microNext(cfg, vals)
}

// traceFile is the traced run's record on disk.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []spanRow          `json:"spans"`
	SelfCPU  map[string]float64 `json:"self_cpu_s"`
	CumCPU   map[string]float64 `json:"cum_cpu_s"`
	TotalCPU float64            `json:"total_cpu_s"`
	// Unattributed is sampled CPU with no layer frame on its stack.
	Unattributed float64 `json:"unattributed_cpu_s"`
}

// writeTrace writes the span tree and layer table as JSON, and the raw
// CPU profile for `go tool pprof`, under cfg.out.
func writeTrace(cfg config, tr *tracer, att attribution, prof []byte) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	data, err := json.MarshalIndent(traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Spans: tr.rows(),
		SelfCPU: att.self, CumCPU: att.cum, TotalCPU: att.total,
		Unattributed: att.unattributed,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
