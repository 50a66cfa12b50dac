package experiments

import (
	"testing"

	"protean/internal/core"
	"protean/internal/model"
)

// BenchmarkQuickScenario is the end-to-end engine benchmark: one full
// cluster run (trace generation, batching, placement, MPS execution,
// reconfiguration) of a quick PROTEAN scenario, reporting ns/op and
// allocs/op; the report content is pinned separately by the
// golden-hash determinism test.
func BenchmarkQuickScenario(b *testing.B) {
	p := Params{Quick: true, Duration: 10, Warmup: 3, Nodes: 2, Seed: 1}
	sc := Scenario{
		Label:  "bench/quick",
		Strict: model.MustByName("ResNet 50"),
		Policy: core.NewProtean(core.ProteanConfig{}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runScenario(p, sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil {
			b.Fatal("nil result")
		}
	}
}
