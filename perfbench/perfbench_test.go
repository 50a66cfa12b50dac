package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"protean/internal/cluster"
	"protean/internal/controlplane"
	"protean/internal/core"
	"protean/internal/experiments"
	"protean/internal/metrics"
	"protean/internal/model"
)

// smokeSizes shrink every workload to a short horizon.
var smokeSizes = sizes{gridDuration: 6, fleetDuration: 10, scaleHorizon: 3600, planeCells: 2, planeHorizon: 20}

func smokeConfig(t *testing.T, workload string) config {
	t.Helper()
	return config{workload: workload, seed: 1, seconds: 0.001, out: t.TempDir(), sizes: smokeSizes}
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, smokeConfig(t, w.name), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
			}
			want := []string{"setup_s", "norm_cpu_s", "requests_per_norm_cpu_s", "peak_heap_mb"}
			for _, k := range endToEndModelled {
				want = append(want, k.name)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("got %d metrics, want %d", len(rep.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := rep.Metrics[name]
				if !ok || m.Unit == "" || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v, want a positive finite value with a unit", name, m)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"paper_grid", "plane_tenants"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			cfg := smokeConfig(t, name)
			rep, err := measureTraced(w, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", rep.Correct, rep.Failed)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("got %d per-layer metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			calls := map[string]string{"paper_grid": "core.place_calls", "plane_tenants": "market.price_ticks"}[name]
			if rep.Metrics[calls].Value <= 0 {
				t.Errorf("%s = 0", calls)
			}
			data, err := os.ReadFile(filepath.Join(cfg.out, name+"-seed1.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || tf.TotalCPU <= 0 {
				t.Errorf("trace file has %d spans and %.2fs CPU", len(tf.Spans), tf.TotalCPU)
			}
			// A smoke profile holds a few dozen samples, too few for the
			// 90% floor, which full-length traced runs are held to; here
			// the reported share must match the layer table it came from.
			got := rep.Metrics["bench.profile_attributed"].Value
			if want := (tf.TotalCPU - tf.Unattributed) / tf.TotalCPU; got != want || !(got > 0 && got <= 1) {
				t.Errorf("profile attributed %v of CPU to layers, trace file says %v", got, want)
			}
		})
	}
}

// TestBenchmarkJSONListsPrintedMetrics keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestBenchmarkJSONListsPrintedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, command runs %v", names, workloadNames())
	}
	e2e := map[string]string{"setup_s": "s", "norm_cpu_s": "s", "requests_per_norm_cpu_s": "1/s", "peak_heap_mb": "MiB"}
	for _, k := range endToEndModelled {
		e2e[k.name] = k.unit
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics listed, %d printed", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s in %q, printed in %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: listed %s in %q, printed %s in %q", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestRefKernelChecksum pins the reference kernel's work: a change to
// it would rescale every normalised host time.
func TestRefKernelChecksum(t *testing.T) {
	if got := refKernel(); got != refChecksum {
		t.Fatalf("refKernel() = %#x, want %#x", got, uint64(refChecksum))
	}
}

func TestCalibrationBlocks(t *testing.T) {
	var c calibration
	for i := 0; i < 2; i++ {
		if err := c.block(0); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.blocks) != 2 || c.runs() != 2 {
		t.Fatalf("two zero-length blocks hold %d blocks of %d runs, want 2 of 1 each", len(c.blocks), c.runs())
	}
	c.blocks = [][]float64{{0.1, 0.3, 0.2}, {0.6}}
	if got, want := c.around(0), refNominalS/0.4; math.Abs(got-want) > 1e-12 {
		t.Errorf("around(0) = %v, want %v (nominal over the mean of the blocks' medians)", got, want)
	}
	if got, want := c.scale(), refNominalS/0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("scale() = %v, want %v", got, want)
	}
}

// brokenWorkload's outcome fails one output check.
func brokenWorkload() workload {
	return workload{name: "broken", setup: func(config, *tracer) (prepared, error) { return brokenRun{}, nil }}
}

type brokenRun struct{}

func (brokenRun) run() (*outcome, error) {
	out := &outcome{attempted: 1, offered: 10, modelled: map[string]float64{}}
	out.fail("%v", checkConservation("cell", metrics.Availability{Offered: 10, Completed: 9}))
	return out, nil
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	rep, err := measure(brokenWorkload(), config{seed: 1, seconds: 0.001}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed < 1 {
		t.Fatalf("correct=%v failed=%d, want false and at least 1", rep.Correct, rep.Failed)
	}
	var out bytes.Buffer
	code, err := emit(rep, &out)
	if code == 0 || err == nil {
		t.Errorf("emit returned %d, %v; want a non-zero code and an error", code, err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("report line %q does not say correct=false", out.String())
	}
}

func TestCheckConservation(t *testing.T) {
	if err := checkConservation("ok", metrics.Availability{Offered: 10, Completed: 9, Dropped: 1}); err != nil {
		t.Error(err)
	}
	for _, a := range []metrics.Availability{
		{Offered: 10, Completed: 9},
		{Offered: 10, Completed: 10, Dropped: 1},
		{},
	} {
		if checkConservation("broken", a) == nil {
			t.Errorf("%+v passed", a)
		}
	}
}

func TestCheckPlane(t *testing.T) {
	good := controlplane.Usage{Tenant: "a", Admitted: 5, Shed: 2, Rejected: 3, Completed: 4, Dropped: 1}
	if errs := checkPlane(map[string]int{"a": 10}, []controlplane.Usage{good}); len(errs) != 0 {
		t.Error(errs)
	}
	lost := good
	lost.Completed = 3 // one admitted request never finished
	miscounted := good
	miscounted.Rejected = 2 // one offered request has no decision
	for name, c := range map[string]struct {
		offered map[string]int
		usages  []controlplane.Usage
	}{
		"admitted not conserved": {map[string]int{"a": 10}, []controlplane.Usage{lost}},
		"offered not conserved":  {map[string]int{"a": 10}, []controlplane.Usage{miscounted}},
		"tenant missing":         {map[string]int{"a": 10, "b": 1}, []controlplane.Usage{good}},
	} {
		if len(checkPlane(c.offered, c.usages)) == 0 {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestCheckTable(t *testing.T) {
	want := &experiments.Table{Headers: []string{"m", "PROTEAN"}, Rows: [][]string{{"ResNet 50", "97.10%"}}}
	same := &experiments.Table{Headers: []string{"m", "PROTEAN"}, Rows: [][]string{{"ResNet 50", "97.10%"}}}
	if err := checkTable(same, want); err != nil {
		t.Error(err)
	}
	for name, got := range map[string]*experiments.Table{
		"cell":    {Headers: []string{"m", "PROTEAN"}, Rows: [][]string{{"ResNet 50", "97.11%"}}},
		"header":  {Headers: []string{"m", "Oracle"}, Rows: [][]string{{"ResNet 50", "97.10%"}}},
		"rows":    {Headers: []string{"m", "PROTEAN"}},
		"missing": nil,
	} {
		if checkTable(got, want) == nil {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestCheckRepeat(t *testing.T) {
	first := map[string]float64{"slo_goodput": 0.9, "nan": math.NaN()}
	if err := checkRepeat(first, map[string]float64{"slo_goodput": 0.9, "nan": math.NaN()}); err != nil {
		t.Error(err)
	}
	for name, next := range map[string]map[string]float64{
		"changed": {"slo_goodput": math.Nextafter(0.9, 1), "nan": math.NaN()},
		"missing": {"slo_goodput": 0.9},
		"extra":   {"slo_goodput": 0.9, "nan": math.NaN(), "x": 1},
	} {
		if checkRepeat(first, next) == nil {
			t.Errorf("%s: passed", name)
		}
	}
	if checkDigest("a\nb\n", "a\nb\n") != nil || checkDigest("a\nb\n", "a\nc\n") == nil {
		t.Error("checkDigest does not compare bytes")
	}
}

// TestWrapperByteIdentical runs scenarios with and without the timing
// wrapper, including the Oracle, whose downtime override must be
// forwarded, and requires identical outputs.
func TestWrapperByteIdentical(t *testing.T) {
	m := model.MustByName("ResNet 50")
	scenarios := func(tr *tracer) []experiments.Scenario {
		facs := []experiments.NamedFactory{
			{Name: "PROTEAN", Factory: core.NewProtean(core.ProteanConfig{})},
			{Name: "Oracle", Factory: core.NewOracle(core.OracleConfig{})},
		}
		var out []experiments.Scenario
		for _, f := range facs {
			fac := f.Factory
			if tr != nil {
				fac = tr.wrapFactory(f.Name, fac)
			}
			out = append(out, experiments.Scenario{Label: f.Name, Strict: m, Rate: wikiRate(6), Policy: fac})
		}
		return out
	}
	render := func(rs []*cluster.Result) string {
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%+v %d %d %.12g %.12g %v\n", r.Availability, r.Reconfigs, r.ColdStarts,
				r.Recorder.SLOCompliance(), r.Recorder.Percentile(99), r.Timeline)
		}
		return b.String()
	}
	p := experiments.Params{Duration: 6, Seed: 3}
	plain, err := experiments.RunScenarios(p, scenarios(nil))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	wrapped, err := experiments.RunScenarios(p, scenarios(tr))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(plain), render(wrapped); a != b {
		t.Fatalf("wrapped run differs:\n%s\nvs\n%s", a, b)
	}
	tr.fold()
	if tr.byName("Place").count == 0 || tr.byName("DesiredGeometry").count == 0 {
		t.Error("wrapper recorded no calls")
	}

	oracle := tr.wrapFactory("Oracle", core.NewOracle(core.OracleConfig{}))()
	ov, ok := oracle.(core.DowntimeOverrider)
	if !ok {
		t.Fatal("wrapped Oracle does not implement core.DowntimeOverrider")
	}
	inner := core.NewOracle(core.OracleConfig{})().(core.DowntimeOverrider)
	d1, ok1 := ov.ReconfigDowntime()
	d2, ok2 := inner.ReconfigDowntime()
	if d1 != d2 || ok1 != ok2 {
		t.Errorf("forwarded downtime (%v, %v) != (%v, %v)", d1, ok1, d2, ok2)
	}
	if _, ok := tr.wrapFactory("PROTEAN", core.NewProtean(core.ProteanConfig{}))().(core.DowntimeOverrider); ok {
		t.Error("wrapped PROTEAN claims a downtime override it does not have")
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"protean/internal/metrics.(*Recorder).Add":          "metrics",
		"protean/internal/cluster.(*Cluster).runPump.func1": "cluster",
		"protean/internal/controlplane.(*Plane).IngestAt":   "controlplane",
		"runtime.mallocgc":                                                       "runtime",
		"runtime/internal/atomic.Load":                                           "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                           "runtime",
		"sort.insertionSort_func":                                                "",
		"protean/internal/obs.(*Collector).Emit":                                 "",
		"protean/internal/experiments.sortedKeys[go.shape.struct {}]":            "",
		"protean/internal/trace.(*Stream).Next":                                  "trace",
		"slices.SortFunc[go.shape.[]protean/internal/gpu.Slice,go.shape.*uint8]": "",
		"main.main":      "",
		"runtime.main":   "",
		"runtime.goexit": "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
	stack := []string{"sort.insertionSort_func", "protean/internal/metrics.(*Recorder).sortedByLatency",
		"protean/internal/cluster.(*Cluster).drainAll"}
	if got := sampleLayer(stack); got != "metrics" {
		t.Errorf("sampleLayer = %q, want metrics", got)
	}
	// Benchmark code on the main goroutine names no layer.
	stack = []string{"fmt.Fprintf", "main.x", "main.main", "runtime.main"}
	if got := sampleLayer(stack); got != "" {
		t.Errorf("sampleLayer(%v) = %q, want no layer", stack, got)
	}
}

// TestAttributionAssignsEveryFrame profiles a short run and checks that
// every frame resolves to one layer or to none, that every sample's
// time lands in exactly one bucket, and that the layers cover the run.
func TestAttributionAssignsEveryFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("scale_stream")
	_, _, err := iterate(w, smokeConfig(t, w.name), nil)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile holds no samples")
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "" {
				t.Fatal("frame without a function name")
			}
			if l := frameLayer(fn); l != "" && !known[l] {
				t.Errorf("frame %q assigned to unknown layer %q", fn, l)
			}
		}
	}
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := a.unattributed
	for l, s := range a.self {
		if !known[l] {
			t.Errorf("self time assigned to unknown layer %q", l)
		}
		sum += s
	}
	if math.Abs(sum-a.total) > 1e-9 {
		t.Errorf("self times sum to %.6fs, profile total %.6fs", sum, a.total)
	}
	if f := a.attributedFrac(); f < 0.9 {
		t.Errorf("layers cover %.3f of sampled CPU, want at least 0.9", f)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i * 1000))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500e3}, {0.99, 990e3}} {
		got := float64(h.quantile(c.q))
		if math.Abs(got-c.want)/c.want > 0.04 {
			t.Errorf("quantile(%v) = %v, want %v within 4%%", c.q, got, c.want)
		}
	}
	for i := 0; i < 4096; i++ {
		if lo := histLower(histBucket(uint64(i))); lo > uint64(i) {
			t.Fatalf("bucket of %d starts at %d", i, lo)
		}
	}
}
