package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"protean/internal/gpu"
)

// refRecorder is the reference for exact storage: a plain sample slice
// with every query computed the straightforward way — a stable sort by
// latency for quantiles and one in-order sum for the tally.
type refRecorder struct {
	samples []Sample
	// byLat caches the stable latency sort; add clears it.
	byLat []Sample
}

func (f *refRecorder) add(samples ...Sample) {
	for _, s := range samples {
		if s.Weight <= 0 {
			s.Weight = 1
		}
		f.samples = append(f.samples, s)
	}
	f.byLat = nil
}

func (f *refRecorder) where(keep func(Sample) bool) *refRecorder {
	out := &refRecorder{}
	for _, s := range f.samples {
		if keep(s) {
			out.samples = append(out.samples, s)
		}
	}
	return out
}

func (f *refRecorder) clone() *refRecorder {
	return &refRecorder{samples: append([]Sample(nil), f.samples...)}
}

// tally sums the samples completed by horizon (horizon <= 0 keeps all).
func (f *refRecorder) tally(horizon float64) tally {
	var t tally
	for _, s := range f.samples {
		if horizon > 0 && s.Completed > horizon {
			continue
		}
		t.n++
		t.weight += s.Weight
		t.latSum += s.Latency * float64(s.Weight)
		if s.SLO > 0 {
			t.attTotal += s.Weight
			if s.Latency <= s.SLO {
				t.attMet += s.Weight
			}
		}
		if s.Strict {
			t.strictW += s.Weight
			if s.Latency <= s.SLO {
				t.strictMet += s.Weight
			}
		}
	}
	return t
}

func (f *refRecorder) mean() float64 {
	t := f.tally(0)
	if t.weight == 0 {
		return math.NaN()
	}
	return t.latSum / float64(t.weight)
}

func (f *refRecorder) atPercentile(p float64) *Sample {
	if len(f.samples) == 0 {
		return nil
	}
	if f.byLat == nil {
		f.byLat = append([]Sample(nil), f.samples...)
		sort.SliceStable(f.byLat, func(a, b int) bool { return f.byLat[a].Latency < f.byLat[b].Latency })
	}
	sorted := f.byLat
	target := p / 100 * float64(f.tally(0).weight)
	cum := 0.0
	for i := range sorted {
		cum += float64(sorted[i].Weight)
		if cum >= target {
			return &sorted[i]
		}
	}
	return &sorted[len(sorted)-1]
}

func (f *refRecorder) percentile(p float64) float64 {
	if s := f.atPercentile(p); s != nil {
		return s.Latency
	}
	return math.NaN()
}

func (f *refRecorder) snapshot() []ModelStats {
	seen := map[string]bool{}
	for _, s := range f.samples {
		seen[s.Model] = true
	}
	var names []string
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	out := []ModelStats{}
	for _, name := range names {
		sub := f.where(func(s Sample) bool { return s.Model == name })
		st := ModelStats{
			Model:          name,
			Requests:       sub.tally(0).weight,
			StrictRequests: sub.tally(0).strictW,
			P50:            sub.percentile(50),
			P99:            sub.percentile(99),
		}
		if st.StrictRequests > 0 {
			t := sub.tally(0)
			st.SLOCompliance = float64(t.strictMet) / float64(t.strictW)
		}
		out = append(out, st)
	}
	return out
}

// sameFloat is bit equality, with every NaN equal to every NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// matchRef asserts every exact-storage query of got equals ref's.
func matchRef(t *testing.T, name string, got *Recorder, ref *refRecorder) {
	t.Helper()
	want := ref.tally(0)
	if got.Len() != want.n || got.Requests() != want.weight {
		t.Fatalf("%s: Len/Requests = %d/%d, want %d/%d", name, got.Len(), got.Requests(), want.n, want.weight)
	}
	wantMean := ref.mean()
	floats := map[string][2]float64{
		"Mean":          {got.Mean(), wantMean},
		"SLOCompliance": {got.SLOCompliance(), ratio(want.strictMet, want.strictW)},
		"Attainment":    {got.Attainment(), ratio(want.attMet, want.attTotal)},
	}
	const duration, gpus, horizon = 50.0, 4, 60.0
	late := ref.tally(horizon)
	floats["Throughput"] = [2]float64{got.Throughput(duration, gpus, horizon), float64(late.strictW) / duration / gpus}
	floats["TotalThroughput"] = [2]float64{got.TotalThroughput(duration, gpus, horizon), float64(late.weight) / duration / gpus}
	for _, p := range []float64{0.5, 25, 50, 90, 99, 99.9, 100} {
		floats["Percentile"] = [2]float64{got.Percentile(p), ref.percentile(p)}
		for q, pair := range floats {
			if !sameFloat(pair[0], pair[1]) {
				t.Fatalf("%s: %s = %v, want %v", name, q, pair[0], pair[1])
			}
		}
		var wantBD Sample
		if s := ref.atPercentile(p); s != nil {
			wantBD = *s
		}
		if g := got.BreakdownAtPercentile(p); g != wantBD.Breakdown {
			t.Fatalf("%s: BreakdownAtPercentile(%v) = %+v, want %+v", name, p, g, wantBD.Breakdown)
		}
	}
	cdf := got.CDF(40)
	if len(ref.samples) == 0 {
		if cdf != nil {
			t.Fatalf("%s: CDF of an empty recorder = %v, want nil", name, cdf)
		}
	} else {
		for i, pt := range cdf {
			q := float64(i+1) / 40 * 100
			if !sameFloat(pt.Latency, ref.percentile(q)) || !sameFloat(pt.Fraction, q/100) {
				t.Fatalf("%s: CDF point %d = %+v, want {%v %v}", name, i, pt, ref.percentile(q), q/100)
			}
		}
	}
	lat := got.Latencies()
	if len(lat) != len(ref.samples) {
		t.Fatalf("%s: %d latencies, want %d", name, len(lat), len(ref.samples))
	}
	for i, l := range lat {
		if !sameFloat(l, ref.samples[i].Latency) {
			t.Fatalf("%s: latency %d = %v, want %v", name, i, l, ref.samples[i].Latency)
		}
	}
	if g, w := got.Snapshot(), ref.snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Snapshot = %+v, want %+v", name, g, w)
	}
}

// genSamples draws n samples over three models, two tenants and both
// classes, with latencies on a coarse grid (many exact ties), weights up
// to 5 and completion times on both sides of the test horizon.
func genSamples(seed int64, n int) []Sample {
	rng := rand.New(rand.NewSource(seed))
	models := []string{"BERT", "GPT-2", "ResNet 50"}
	out := make([]Sample, n)
	for i := range out {
		lat := float64(1+rng.Intn(300)) / 1000
		s := Sample{
			Model:     models[rng.Intn(len(models))],
			Tenant:    []string{"", "acme"}[rng.Intn(2)],
			Strict:    rng.Intn(2) == 0,
			Latency:   lat,
			Completed: rng.Float64() * 100,
			Weight:    rng.Intn(6), // 0 normalises to 1
		}
		// The breakdown differs between samples of equal latency, so a
		// tie broken out of insertion order shows.
		s.Breakdown.MinPossible = lat / 3
		s.Breakdown.Queue = lat - s.Breakdown.MinPossible
		s.Breakdown.ColdStart = float64(i)
		switch {
		case s.Strict:
			s.SLO = 0.15
		case rng.Intn(2) == 0:
			s.SLO = 0.25 // a soft best-effort target
		}
		out[i] = s
	}
	return out
}

// TestChunkedRecorderMatchesReference compares exact storage — chunks,
// interned keys, shared chunk headers — with the plain-slice reference
// across several chunk capacities, latency ties, weights > 1, views of
// views, merges of roots and views, and appends on either side of a
// merge.
func TestChunkedRecorderMatchesReference(t *testing.T) {
	all := genSamples(1, 2*maxChunk+3*minChunk+7)
	r, ref := &Recorder{}, &refRecorder{}
	for _, s := range all {
		r.Add(s)
	}
	ref.add(all...)
	caps := map[int]bool{}
	for _, c := range r.chunks {
		caps[cap(c.recs)] = true
	}
	if len(caps) <= 2 || !caps[minChunk] || !caps[maxChunk] {
		t.Fatalf("chunk capacities %v: want more than two, from %d to %d", caps, minChunk, maxChunk)
	}
	matchRef(t, "root", r, ref)

	strict := func(s Sample) bool { return s.Strict }
	model := func(name string) func(Sample) bool { return func(s Sample) bool { return s.Model == name } }
	tenant := func(id string) func(Sample) bool { return func(s Sample) bool { return s.Tenant == id } }
	matchRef(t, "Strict", r.Strict(), ref.where(strict))
	matchRef(t, "BestEffort", r.BestEffort(), ref.where(func(s Sample) bool { return !s.Strict }))
	matchRef(t, "ForTenant", r.ForTenant("acme"), ref.where(tenant("acme")))
	matchRef(t, "Strict.ForModel", r.Strict().ForModel("BERT"), ref.where(strict).where(model("BERT")))
	matchRef(t, "ForModel.ForTenant.Strict", r.ForModel("GPT-2").ForTenant("").Strict(),
		ref.where(model("GPT-2")).where(tenant("")).where(strict))
	matchRef(t, "ForModel(absent)", r.ForModel("absent"), &refRecorder{})

	// A receiver with samples of its own merges a root and a view.
	extra := genSamples(2, 3*minChunk+1)
	m, mref := &Recorder{}, &refRecorder{}
	for _, s := range extra {
		m.Add(s)
	}
	mref.add(extra...)
	m.Merge(r)
	mref.add(ref.samples...)
	m.Merge(r.ForModel("BERT").Strict())
	mref.add(ref.where(model("BERT")).where(strict).samples...)
	matchRef(t, "merged root and view", m, mref)
	matchRef(t, "view of a merged recorder", m.ForTenant("acme").Strict(), mref.where(tenant("acme")).where(strict))

	// The donor keeps adding after the merge: the receiver must not see
	// it. The receiver adds too: the donor must not see that.
	donor, dref := &Recorder{}, &refRecorder{}
	first := genSamples(3, 5*minChunk+3)
	for _, s := range first {
		donor.Add(s)
	}
	dref.add(first...)
	recv, rref := &Recorder{}, &refRecorder{}
	recv.Merge(donor)
	rref.add(dref.samples...)
	frozen := rref.clone()
	later := genSamples(4, 3*minChunk)
	later = append(later, Sample{Model: "new model", Strict: true, Latency: 0.01, SLO: 0.1, Weight: 3})
	for _, s := range later {
		donor.Add(s)
	}
	dref.add(later...)
	matchRef(t, "receiver after donor adds", recv, frozen)
	matchRef(t, "donor after its adds", donor, dref)
	donorBefore := dref.clone()
	more := genSamples(5, 2*minChunk+5)
	more = append(more, Sample{Model: "receiver-only", Tenant: "t", Latency: 0.2, Weight: 2})
	for _, s := range more {
		recv.Add(s)
	}
	rref.add(more...)
	matchRef(t, "receiver after its adds", recv, rref)
	matchRef(t, "donor after receiver adds", donor, donorBefore)

	// A merged recorder can be merged on: shared chunks carry their own
	// key tables, and the chain must still read back in order.
	chain, cref := &Recorder{}, &refRecorder{}
	chain.Merge(recv)
	chain.Merge(donor)
	chain.Merge(chain.ForModel("receiver-only"))
	cref.add(rref.samples...)
	cref.add(dref.samples...)
	cref.add(cref.where(model("receiver-only")).samples...)
	matchRef(t, "merge chain", chain, cref)
	matchRef(t, "recv after being merged on", recv, rref)
}

// TestRecordHoldsNoPointers walks the record type: a pointer-free record
// keeps every chunk out of the garbage collector's scan.
func TestRecordHoldsNoPointers(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s has kind %s, which holds a pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(record{}), "record")
	if size := reflect.TypeOf(record{}).Size(); size != 72 {
		t.Errorf("record is %d bytes, want 72", size)
	}
}

// BenchmarkRecorderDrain measures the batch path's drain: eight node
// recorders of 250k samples each merged into one recorder, then the
// strict P99 and its breakdown, as a cluster result reports them.
func BenchmarkRecorderDrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	models := []string{"BERT", "GPT-2", "ResNet 50"}
	nodes := make([]*Recorder, 8)
	for n := range nodes {
		nodes[n] = &Recorder{}
		for i := 0; i < 250000; i++ {
			lat := rng.ExpFloat64() * 0.05
			nodes[n].Add(Sample{
				Model:     models[rng.Intn(len(models))],
				Strict:    rng.Intn(2) == 0,
				SLO:       0.1,
				Latency:   lat,
				Completed: float64(i) / 1000,
				Breakdown: gpu.Breakdown{MinPossible: lat / 2, Queue: lat / 2},
				Weight:    1,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := &Recorder{}
		for _, n := range nodes {
			all.Merge(n)
		}
		strict := all.Strict()
		_ = strict.Percentile(99)
		_ = strict.BreakdownAtPercentile(99)
	}
}
