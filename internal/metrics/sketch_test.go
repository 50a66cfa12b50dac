package metrics

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSketchQuantileWithinAlpha pins the sketch-mode recorder's P50 and
// P99 within the documented SketchAlpha relative error of the exact
// path, over five seeds of heavy-tailed latencies with mixed weights
// and models.
func TestSketchQuantileWithinAlpha(t *testing.T) {
	models := []string{"BERT", "GPT-2", "ResNet 50"}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		exact := &Recorder{}
		sketch := NewSketchRecorder()
		for i := 0; i < 20000; i++ {
			s := Sample{
				Model:   models[rng.Intn(len(models))],
				Strict:  rng.Intn(2) == 0,
				Latency: math.Exp(rng.NormFloat64()*1.5 - 3), // lognormal, ~5ms median
				Weight:  1 + rng.Intn(8),
			}
			if s.Strict {
				s.SLO = 0.1
			}
			exact.Add(s)
			sketch.Add(s)
		}
		for _, p := range []float64{50, 99} {
			want := exact.Percentile(p)
			got := sketch.Percentile(p)
			if rel := math.Abs(got-want) / want; rel > SketchAlpha {
				t.Fatalf("seed %d: sketch P%v = %v, exact %v (relative error %.4f > %v)",
					seed, p, got, want, rel, SketchAlpha)
			}
		}
		// The streaming aggregates are exact, not approximations.
		if g, w := sketch.SLOCompliance(), exact.SLOCompliance(); g != w {
			t.Fatalf("seed %d: sketch SLO compliance %v, exact %v", seed, g, w)
		}
		if g, w := sketch.Attainment(), exact.Attainment(); g != w {
			t.Fatalf("seed %d: sketch attainment %v, exact %v", seed, g, w)
		}
		if g, w := sketch.Requests(), exact.Requests(); g != w {
			t.Fatalf("seed %d: sketch requests %d, exact %d", seed, g, w)
		}
		if g, w := Goodput(sketch, 60), Goodput(exact, 60); g != w {
			t.Fatalf("seed %d: sketch goodput %v, exact %v", seed, g, w)
		}
		// Class and model filters must agree too (whole-aggregate selection).
		if g, w := sketch.Strict().Requests(), exact.Strict().Requests(); g != w {
			t.Fatalf("seed %d: strict view requests %d, exact %d", seed, g, w)
		}
		for _, m := range models {
			g := sketch.ForModel(m).Percentile(99)
			w := exact.ForModel(m).Percentile(99)
			if rel := math.Abs(g-w) / w; rel > SketchAlpha {
				t.Fatalf("seed %d model %s: sketch P99 %v, exact %v", seed, m, g, w)
			}
		}
	}
}

// TestSketchMergeOrderIndependent asserts a sketch assembled by any
// insertion order, or by merging shards in any order, serialises to
// identical bytes — the property the per-node recorder merge relies on.
func TestSketchMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64() * 2)
	}

	forward := &Sketch{}
	for _, v := range vals {
		forward.Add(v, 1)
	}
	backward := &Sketch{}
	for i := len(vals) - 1; i >= 0; i-- {
		backward.Add(vals[i], 1)
	}
	// Shard four ways, merge in two different orders.
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = &Sketch{}
	}
	for i, v := range vals {
		shards[i%4].Add(v, 1)
	}
	mergeA := &Sketch{}
	for _, sh := range shards {
		mergeA.Merge(sh)
	}
	mergeB := &Sketch{}
	for i := len(shards) - 1; i >= 0; i-- {
		mergeB.Merge(shards[i])
	}

	ref := forward.AppendBinary(nil)
	for name, sk := range map[string]*Sketch{"backward": backward, "mergeA": mergeA, "mergeB": mergeB} {
		if got := sk.AppendBinary(nil); !bytes.Equal(got, ref) {
			t.Fatalf("%s serialisation differs from forward insertion", name)
		}
	}
	if forward.Count() != int64(len(vals)) {
		t.Fatalf("Count() = %d, want %d", forward.Count(), len(vals))
	}
}

// TestSketchEdgeCases covers empties, zero/negative latencies, and the
// weight normalisation the recorder applies.
func TestSketchEdgeCases(t *testing.T) {
	var sk Sketch
	if !math.IsNaN(sk.Quantile(50)) {
		t.Fatalf("empty sketch quantile = %v, want NaN", sk.Quantile(50))
	}
	sk.Add(0, 3)
	sk.Add(-1, 1)
	if got := sk.Quantile(50); got != 0 {
		t.Fatalf("all-zeros quantile = %v, want 0", got)
	}
	sk.Add(1.0, 0) // weight 0 normalises to 1
	if sk.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", sk.Count())
	}
	if got := sk.Quantile(100); math.Abs(got-1)/1 > SketchAlpha {
		t.Fatalf("max quantile = %v, want ~1", got)
	}
}

// TestExactViewsShareBacking asserts the selectors return views and
// that merging an exact root shares its chunks (no sample copies), that
// chained selections compose, and that mutating a view detaches it
// instead of corrupting the parent.
func TestExactViewsShareBacking(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 100; i++ {
		m := "GPT-2"
		if i < 10 {
			m = "BERT"
		}
		r.Add(Sample{Model: m, Strict: i%2 == 0, Latency: float64(i), SLO: 50, Weight: 1})
	}
	if len(r.chunks) < 2 {
		t.Fatalf("100 samples fill %d chunk(s), want several", len(r.chunks))
	}
	v := r.Strict()
	if v.Len() != 50 {
		t.Fatalf("strict view has %d samples, want 50", v.Len())
	}
	m := &Recorder{}
	m.Merge(r)
	if m.Len() != 100 {
		t.Fatalf("merged recorder has %d samples, want 100", m.Len())
	}
	for name, got := range map[string]*Recorder{"view": v, "merged recorder": m} {
		if len(got.chunks) != len(r.chunks) {
			t.Fatalf("%s has %d chunks, want the root's %d", name, len(got.chunks), len(r.chunks))
		}
		for ci := range r.chunks {
			if &got.chunks[ci].recs[0] != &r.chunks[ci].recs[0] {
				t.Fatalf("%s copied chunk %d instead of sharing it", name, ci)
			}
		}
	}
	sub := v.ForModel("BERT")
	if sub.Len() != 5 {
		t.Fatalf("chained view has %d samples, want 5", sub.Len())
	}
	if got := sub.Percentile(100); got != 8 {
		t.Fatalf("chained view max latency %v, want 8", got)
	}

	// Mutating the view must not perturb the parent.
	before := r.Requests()
	v.Add(Sample{Model: "BERT", Strict: true, Latency: 999, SLO: 50, Weight: 1})
	if r.Requests() != before {
		t.Fatalf("adding to a view changed the parent's request count")
	}
	if v.Requests() != 51 {
		t.Fatalf("view requests = %d after add, want 51", v.Requests())
	}
	if got := v.Percentile(100); got != 999 {
		t.Fatalf("view max after add = %v, want 999", got)
	}
	// The earlier chained view still sees its snapshot.
	if sub.Len() != 5 {
		t.Fatalf("sibling view perturbed by cousin mutation")
	}

	// Mutating the parent after views exist must not corrupt views.
	r.Add(Sample{Model: "BERT", Strict: true, Latency: 1, Weight: 1})
	if sub.Len() != 5 || sub.Percentile(100) != 8 {
		t.Fatalf("view changed after parent mutation")
	}
}

// TestSortCacheInvalidation asserts percentile results stay correct
// across interleaved Add calls (the cached sort order must be rebuilt).
func TestSortCacheInvalidation(t *testing.T) {
	r := &Recorder{}
	r.Add(Sample{Latency: 5, Weight: 1})
	r.Add(Sample{Latency: 1, Weight: 1})
	if got := r.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v, want 5", got)
	}
	r.Add(Sample{Latency: 9, Weight: 1})
	if got := r.Percentile(100); got != 9 {
		t.Fatalf("P100 after add = %v, want 9 (stale sort cache?)", got)
	}
	m := &Recorder{}
	m.Add(Sample{Latency: 20, Weight: 1})
	r.Merge(m)
	if got := r.Percentile(100); got != 20 {
		t.Fatalf("P100 after merge = %v, want 20 (stale sort cache?)", got)
	}
}

// TestSketchRecorderMergesExact covers the per-node drain path at scale:
// per-node exact recorders folded into a sketch-mode root.
func TestSketchRecorderMergesExact(t *testing.T) {
	root := NewSketchRecorder()
	exact := &Recorder{}
	all := &Recorder{}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 4; n++ {
		node := &Recorder{}
		for i := 0; i < 500; i++ {
			s := Sample{Model: "BERT", Strict: true, SLO: 0.2, Latency: rng.Float64(), Weight: 1}
			node.Add(s)
			all.Add(s)
		}
		root.Merge(node)
		exact.Merge(node)
	}
	if g, w := root.Requests(), all.Requests(); g != w {
		t.Fatalf("merged sketch requests %d, want %d", g, w)
	}
	want := all.Percentile(99)
	if got := root.Percentile(99); math.Abs(got-want)/want > SketchAlpha {
		t.Fatalf("merged sketch P99 %v, exact %v", got, want)
	}
}

// BenchmarkReportPath measures the full per-cell report computation
// (class and model views, percentiles, summaries) over a large
// recorder. The selectors return views, so each subset costs one
// position slice rather than a copy of every sample.
func BenchmarkReportPath(b *testing.B) {
	r := &Recorder{}
	rng := rand.New(rand.NewSource(1))
	models := []string{"BERT", "GPT-2", "ResNet 50"}
	for i := 0; i < 200000; i++ {
		r.Add(Sample{
			Model:   models[rng.Intn(len(models))],
			Strict:  rng.Intn(2) == 0,
			SLO:     0.1,
			Latency: rng.ExpFloat64() * 0.05,
			Weight:  1 + rng.Intn(4),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Summarize()
		_ = r.Snapshot()
		_ = r.BestEffort().Mean()
	}
}

// BenchmarkSketchAdd measures the O(1)-memory ingest path.
func BenchmarkSketchAdd(b *testing.B) {
	r := NewSketchRecorder()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 0.05
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(Sample{Model: "BERT", Strict: true, SLO: 0.1, Latency: vals[i%len(vals)], Weight: 1})
	}
}

// TestAddMergeEveryStorageCombination drives Add and Merge through every
// receiver {exact, sketch} × {root, view} and argument {exact, sketch} ×
// {root, view}: none may panic, the tally-backed queries must equal an
// exact reference over the same samples, and quantiles must match it
// exactly when both sides are exact and within SketchAlpha otherwise.
func TestAddMergeEveryStorageCombination(t *testing.T) {
	gen := func(seed int64, n int) []Sample {
		rng := rand.New(rand.NewSource(seed))
		models := []string{"BERT", "GPT-2"}
		out := make([]Sample, n)
		for i := range out {
			out[i] = Sample{
				Model:   models[rng.Intn(len(models))],
				Tenant:  []string{"", "acme"}[rng.Intn(2)],
				Strict:  rng.Intn(2) == 0,
				Latency: math.Exp(rng.NormFloat64() - 3),
				Weight:  1 + rng.Intn(4),
			}
			out[i].SLO = 0.06
		}
		return out
	}
	build := func(sketch, view bool, samples []Sample) (rec, parent *Recorder) {
		parent = &Recorder{}
		if sketch {
			parent = NewSketchRecorder()
		}
		for _, s := range samples {
			parent.Add(s)
		}
		if view {
			return parent.ForModel("BERT"), parent
		}
		return parent, parent
	}
	// visible is what a recorder built by build exposes.
	visible := func(view bool, samples []Sample) []Sample {
		if !view {
			return samples
		}
		var out []Sample
		for _, s := range samples {
			if s.Model == "BERT" {
				out = append(out, s)
			}
		}
		return out
	}
	recvSamples, argSamples := gen(1, 400), gen(2, 300)
	for _, op := range []string{"Add", "Merge"} {
		for _, rs := range []bool{false, true} {
			for _, rv := range []bool{false, true} {
				for _, as := range []bool{false, true} {
					for _, av := range []bool{false, true} {
						if op == "Add" && (as || av) {
							continue // Add takes a sample, not a recorder
						}
						name := fmt.Sprintf("%s/recv(sketch=%v,view=%v)/arg(sketch=%v,view=%v)", op, rs, rv, as, av)
						t.Run(name, func(t *testing.T) {
							recv, recvParent := build(rs, rv, recvSamples)
							arg, argParent := build(as, av, argSamples)
							parentReqs, argParentReqs := recvParent.Requests(), argParent.Requests()
							ref := &Recorder{}
							for _, s := range visible(rv, recvSamples) {
								ref.Add(s)
							}
							added := visible(av, argSamples)
							if op == "Add" {
								for _, s := range added {
									recv.Add(s)
								}
							} else {
								recv.Merge(arg)
							}
							for _, s := range added {
								ref.Add(s)
							}
							if recv != recvParent && recvParent.Requests() != parentReqs {
								t.Fatalf("mutating a view changed its parent: %d requests, want %d", recvParent.Requests(), parentReqs)
							}
							if argParent.Requests() != argParentReqs {
								t.Fatalf("merge changed the argument's parent")
							}
							checkAgainst(t, recv, ref, !rs && (op == "Add" || !as))
						})
					}
				}
			}
		}
	}

	// An exact view is a snapshot: later parent Adds do not reach it.
	parent := &Recorder{}
	for _, s := range recvSamples {
		parent.Add(s)
	}
	view := parent.Strict()
	want := &Recorder{}
	want.Merge(view)
	for _, s := range argSamples {
		parent.Add(s)
	}
	checkAgainst(t, view, want, true)
}

// checkAgainst compares every tally-backed query of got with the exact
// reference ref, and its quantiles exactly or within SketchAlpha.
func checkAgainst(t *testing.T, got, ref *Recorder, exact bool) {
	t.Helper()
	if g, w := got.Len(), ref.Len(); g != w {
		t.Errorf("Len = %d, want %d", g, w)
	}
	if g, w := got.Requests(), ref.Requests(); g != w {
		t.Errorf("Requests = %d, want %d", g, w)
	}
	if g, w := got.Strict().Requests(), ref.Strict().Requests(); g != w {
		t.Errorf("strict Requests = %d, want %d", g, w)
	}
	for name, pair := range map[string][2]float64{
		"SLOCompliance": {got.SLOCompliance(), ref.SLOCompliance()},
		"Attainment":    {got.Attainment(), ref.Attainment()},
		"Goodput":       {Goodput(got, 60), Goodput(ref, 60)},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
		}
	}
	if g, w := got.Mean(), ref.Mean(); math.Abs(g-w) > 1e-12*w {
		t.Errorf("Mean = %v, want %v", g, w)
	}
	for _, p := range []float64{50, 99} {
		g, w := got.Percentile(p), ref.Percentile(p)
		if exact && g != w {
			t.Errorf("P%v = %v, want exactly %v", p, g, w)
		}
		if rel := math.Abs(g-w) / w; rel > SketchAlpha {
			t.Errorf("P%v = %v, want %v within %v (relative error %.4f)", p, g, w, SketchAlpha, rel)
		}
	}
}
