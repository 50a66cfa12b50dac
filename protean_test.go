package protean

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNewDefaults(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p.cfg.Nodes != 8 || p.cfg.Scheme != SchemePROTEAN || p.cfg.SLOMultiplier != 3 {
		t.Errorf("defaults = %+v", p.cfg)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(WithNodes(0)); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(WithScheme("bogus")); err == nil {
		t.Error("bogus scheme accepted")
	}
	if _, err := New(WithProcurement(ProcurementHybrid, "bogus")); err == nil {
		t.Error("bogus availability accepted")
	}
}

func TestAllSchemesResolve(t *testing.T) {
	for _, s := range Schemes() {
		if _, err := s.factory(); err != nil {
			t.Errorf("scheme %s: %v", s, err)
		}
	}
}

func TestRunSmallWorkload(t *testing.T) {
	p, err := New(WithNodes(2), WithSeed(7), WithWarmup(5*time.Second))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := p.Run(Workload{
		StrictModel: "ResNet 50",
		MeanRPS:     1000,
		Duration:    20 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if res.SLOCompliance <= 0 || res.SLOCompliance > 1 {
		t.Errorf("SLO compliance = %v", res.SLOCompliance)
	}
	if res.StrictRequests <= 0 || res.StrictRequests > res.Requests {
		t.Errorf("strict requests = %d of %d", res.StrictRequests, res.Requests)
	}
	if res.StrictP99 <= 0 {
		t.Errorf("strict P99 = %v", res.StrictP99)
	}
	if res.GPUUtilization <= 0 {
		t.Errorf("GPU utilization = %v", res.GPUUtilization)
	}
	if len(res.GeometryTimeline) == 0 {
		t.Error("no geometry timeline")
	}
}

// TestRunWithoutStrictSamples runs with a warm-up that covers the whole
// trace, so no strict request is measured: the result must stay finite
// (SLOCompliance 0 with StrictRequests 0, not NaN) and encode as JSON.
func TestRunWithoutStrictSamples(t *testing.T) {
	p, err := New(WithNodes(1), WithSeed(3), WithWarmup(20*time.Second))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := p.Run(Workload{StrictModel: "ResNet 50", MeanRPS: 200, Duration: 10 * time.Second})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.StrictRequests != 0 || res.SLOCompliance != 0 {
		t.Errorf("StrictRequests = %d, SLOCompliance = %v; want 0 and 0", res.StrictRequests, res.SLOCompliance)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
}

func TestRunWorkloadValidation(t *testing.T) {
	p, err := New(WithNodes(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := p.Run(Workload{StrictModel: "NoSuchNet", StrictFraction: 0.5, MeanRPS: 10}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := p.Run(Workload{StrictModel: "ResNet 50"}); err == nil {
		t.Error("missing rate accepted")
	}
	if _, err := p.Run(Workload{StrictModel: "ResNet 50", MeanRPS: 10, Shape: "spiral"}); err == nil {
		t.Error("unknown shape accepted")
	}
	if _, err := p.Run(Workload{StrictModel: "ResNet 50", MeanRPS: 10, BEModels: []string{"nope"}}); err == nil {
		t.Error("unknown BE model accepted")
	}
}

func TestRunWithCostLayer(t *testing.T) {
	p, err := New(
		WithNodes(2),
		WithProcurement(ProcurementHybrid, SpotHigh),
		WithWarmup(5*time.Second),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := p.Run(Workload{StrictModel: "ShuffleNet V2", MeanRPS: 800, Duration: 30 * time.Second})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.NormalizedCost <= 0 || res.NormalizedCost >= 1 {
		t.Errorf("normalized cost = %v, want in (0, 1) on all-spot fleet", res.NormalizedCost)
	}
}

func TestTraceShapes(t *testing.T) {
	p, err := New(WithNodes(1), WithWarmup(2*time.Second))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, shape := range []TraceShape{TraceConstant, TraceWiki, TraceTwitter} {
		res, err := p.Run(Workload{
			StrictModel: "MobileNet",
			Shape:       shape,
			MeanRPS:     400,
			Duration:    15 * time.Second,
		})
		if err != nil {
			t.Fatalf("Run(%s): %v", shape, err)
		}
		if res.Requests == 0 {
			t.Errorf("shape %s recorded nothing", shape)
		}
	}
}

func TestModelsCatalog(t *testing.T) {
	models := Models()
	if len(models) != 22 {
		t.Fatalf("Models() = %d entries, want 22", len(models))
	}
	for _, m := range models {
		sloDrift := m.SLO - 3*m.SoloLatency
		if sloDrift < 0 {
			sloDrift = -sloDrift
		}
		if m.Name == "" || m.BatchSize <= 0 || m.SoloLatency <= 0 || sloDrift > time.Microsecond {
			t.Errorf("bad catalog entry: %+v", m)
		}
	}
}

func TestExperimentsRegistryExposed(t *testing.T) {
	ids := Experiments()
	if len(ids) < 19 {
		t.Fatalf("Experiments() = %d entries, want >= 19", len(ids))
	}
	want := map[string]bool{"fig5": true, "table4": true, "stats": true}
	for _, id := range ids {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Errorf("missing experiments: %v", want)
	}
}

func TestRunExperimentQuick(t *testing.T) {
	out, err := RunExperiment("table3", true)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if !strings.Contains(out, "AWS") || !strings.Contains(out, "spot") {
		t.Errorf("unexpected output: %q", out)
	}
	if _, err := RunExperiment("fig999", true); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestGPUArchOption(t *testing.T) {
	if _, err := New(WithGPUArch("q100")); err == nil {
		t.Error("unknown arch accepted")
	}
	p, err := New(WithNodes(2), WithGPUArch("h100"), WithWarmup(3*time.Second))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := p.Run(Workload{StrictModel: "DPN 92", MeanRPS: 600, Duration: 15 * time.Second})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests == 0 {
		t.Error("no requests served on H100")
	}
	// H100 profile names surface in the geometry timeline.
	found := false
	for _, ev := range res.GeometryTimeline {
		if strings.Contains(ev.Geometry, "gb") {
			found = true
		}
	}
	if !found {
		t.Errorf("timeline %v lacks H100 profile names", res.GeometryTimeline)
	}
}
