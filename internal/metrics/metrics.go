// Package metrics collects per-request latency observations and computes
// everything the paper's evaluation reports: SLO compliance, weighted
// latency percentiles and CDFs, tail-latency breakdowns (Figures 2, 6,
// 11), throughput, and the statistical significance measures of §7
// (Welch's t-test, Cohen's d, confidence intervals).
//
// A Recorder has one of two storages. The zero value buffers every
// sample exactly, which keeps goldens, grid cells, and statistical-test
// inputs byte-identical run to run. NewSketchRecorder replaces the
// sample buffer with O(1)-memory per-(model, tenant, class) aggregates
// — streaming counters plus a deterministic quantile Sketch — for runs
// whose request volume would not fit in memory; see DESIGN.md, "Memory
// model at scale".
package metrics

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"protean/internal/gpu"
)

// Sample is one latency observation. A batch of N requests is recorded
// as one sample with Weight N.
type Sample struct {
	// Model is the invoked model's name.
	Model string
	// Tenant is the owning tenant id for live control-plane traffic
	// (empty for batch experiment runs).
	Tenant string
	// Strict marks samples from strict-SLO requests.
	Strict bool
	// Latency is the end-to-end request latency in seconds.
	Latency float64
	// SLO is the latency target for strict samples (0 for best effort).
	SLO float64
	// Breakdown decomposes the latency.
	Breakdown gpu.Breakdown
	// Completed is the virtual time the request finished (used to
	// restrict throughput to the in-trace window, excluding the final
	// drain).
	Completed float64
	// Weight is the number of requests this sample represents.
	Weight int
}

// Recorder accumulates samples. Its storage is fixed at construction:
// the zero value keeps every sample (exact storage); NewSketchRecorder
// keeps one streaming aggregate per (model, tenant, class) key instead
// (sketch storage). Only the storage primitives — Add, Merge, the
// counting scan (count), the key selection (where), Snapshot's model
// list and the quantile, breakdown and latency readers — look at which
// storage is in use; every scalar query reads one tally.
//
// Exact storage holds pointer-free records in append-only chunks that
// are never reallocated, so the garbage collector has nothing to scan
// and a chunk, once written, never moves. Merging an exact root into an
// exact recorder shares the root's chunk headers instead of copying its
// samples.
//
// Strict, BestEffort, ForModel and ForTenant return views: one key
// selection over the parent's storage — record positions in parent
// order, or aggregate keys — never a sample copy. A recorder only ever
// appends past the records it has exposed, so an exact view, like a
// merged chunk, is a snapshot: later samples lie past every position it
// indexes. A sketch view shares its parent's aggregates. A view that
// receives Add or Merge first detaches into a recorder of its own, so
// the parent is never perturbed.
type Recorder struct {
	// chunks is exact storage, in arrival order: the recorder's own
	// chunks and the chunk headers it shared from merged roots. A shared
	// header is capped at the length it had when shared, so it is full:
	// the next Add after a Merge opens a fresh chunk, and only a chunk's
	// creator ever appends to it.
	chunks []chunk
	// keyTab interns the keys of the samples this recorder added, in
	// first-seen order; keyIDs indexes it and lastKey/lastID cache the
	// most recent lookup, so a run of same-key samples skips the map.
	keyTab  []key
	keyIDs  map[key]uint32
	lastKey key
	lastID  uint32
	// tal is the exact-storage tally of the visible samples, in sample
	// order: kept current by Add and Merge, built with a view's
	// selection.
	tal tally
	// sk is sketch storage (nil: exact), shared by a root and its views.
	sk *sketchStore
	// pos (exact) or keys (sketch) is a view's selection, in the order
	// the parent walks it; both are nil on a root.
	pos  []recPos
	keys []key

	// byLat caches the latency-sorted record positions for the quantile
	// path; valid only while sortedOK. Add/Merge invalidate it, so
	// report generation re-sorts once instead of once per quantile.
	byLat    []latPos
	sortedOK bool
}

// record is the exact-storage form of a Sample. It holds no pointer:
// model, tenant and class live in the owning chunk's key table and the
// record names them by id.
type record struct {
	latency, slo, completed float64
	breakdown               gpu.Breakdown
	weight                  int32
	key                     uint32
}

// chunk is one append-only block of records and the key table their key
// ids index. Its backing array is allocated once at full capacity and
// never reallocated.
type chunk struct {
	recs []record
	keys []key
}

// A recorder's first chunk holds minChunk records; each later one holds
// as many as the recorder already has, up to maxChunk. Small first
// chunks keep the live plane's many per-tenant recorders small.
const (
	minChunk = 16
	maxChunk = 1 << 14
)

// recPos locates one record: chunk index, then index within the chunk.
type recPos struct{ c, i uint32 }

// latPos is one entry of the quantile path's latency order.
type latPos struct {
	lat float64
	recPos
}

// key identifies one sketch aggregate and one key-table entry; it is
// also what the selectors match samples on.
type key struct {
	model  string
	tenant string
	strict bool
}

// tally holds the counters every scalar query reads. Exact storage sums
// it in sample order, sketch storage in sorted key order, so its float
// sum is a pure function of the storage's contents.
type tally struct {
	// n and weight count samples and weighted requests.
	n, weight int
	// latSum accumulates Latency·Weight for the mean.
	latSum float64
	// attTotal/attMet count weighted samples with a latency target
	// (SLO > 0) and those meeting it.
	attTotal, attMet int
	// strictW/strictMet count weighted strict samples and those with
	// Latency <= SLO.
	strictW, strictMet int
}

func (t *tally) add(rec *record, strict bool) {
	w := int(rec.weight)
	t.n++
	t.weight += w
	t.latSum += rec.latency * float64(w)
	if rec.slo > 0 {
		t.attTotal += w
		if rec.latency <= rec.slo {
			t.attMet += w
		}
	}
	if strict {
		t.strictW += w
		if rec.latency <= rec.slo {
			t.strictMet += w
		}
	}
}

func (t *tally) merge(o *tally) {
	t.n += o.n
	t.weight += o.weight
	t.latSum += o.latSum
	t.attTotal += o.attTotal
	t.attMet += o.attMet
	t.strictW += o.strictW
	t.strictMet += o.strictMet
}

// sketchAgg is the O(1)-memory replacement for one key's samples.
type sketchAgg struct {
	tally
	sk Sketch
}

// sketchStore is the sketch storage of a recorder and its views.
type sketchStore struct {
	aggs map[key]*sketchAgg
	// sorted caches every key in (model, tenant, strict-first) order.
	// Keys are never removed, so it is stale exactly when its length
	// differs from the map's.
	sorted []key
}

func (s *sketchStore) add(k key, rec *record) {
	a := s.agg(k)
	a.sk.Add(rec.latency, int(rec.weight))
	a.tally.add(rec, k.strict)
}

func (s *sketchStore) merge(k key, o *sketchAgg) {
	a := s.agg(k)
	a.sk.Merge(&o.sk)
	a.tally.merge(&o.tally)
}

func (s *sketchStore) agg(k key) *sketchAgg {
	a, ok := s.aggs[k]
	if !ok {
		a = &sketchAgg{}
		s.aggs[k] = a
	}
	return a
}

// sortedKeys returns every aggregate key in a fixed order, so iteration
// — including float summation — is deterministic. A rebuild allocates a
// fresh slice: views may hold the previous one.
func (s *sketchStore) sortedKeys() []key {
	if len(s.sorted) != len(s.aggs) {
		keys := make([]key, 0, len(s.aggs))
		for k := range s.aggs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.model != b.model {
				return a.model < b.model
			}
			if a.tenant != b.tenant {
				return a.tenant < b.tenant
			}
			return a.strict && !b.strict
		})
		s.sorted = keys
	}
	return s.sorted
}

// NewSketchRecorder returns a recorder with sketch storage: per-(model,
// tenant, class) streaming aggregates instead of a sample buffer.
// Quantiles come from a deterministic Sketch with relative error at
// most SketchAlpha; means, SLO compliance, attainment and request
// counts are exact. Per-sample state is not retained, so
// BreakdownAtPercentile returns a zero breakdown, Latencies returns
// nil, and throughput horizons keep every aggregate.
func NewSketchRecorder() *Recorder {
	return &Recorder{sk: &sketchStore{aggs: make(map[key]*sketchAgg)}}
}

func (r *Recorder) isView() bool { return r.pos != nil || r.keys != nil }

// detach turns a view into a root that owns its contents by merging it
// into a fresh recorder of the same storage.
func (r *Recorder) detach() {
	own := &Recorder{}
	if r.sk != nil {
		own = NewSketchRecorder()
	}
	own.Merge(r)
	*r = *own
}

// Add records a sample. Zero weights are normalized to 1; a weight is
// held as an int32.
func (r *Recorder) Add(s Sample) {
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if r.isView() {
		r.detach()
	}
	k := key{s.Model, s.Tenant, s.Strict}
	rec := record{latency: s.Latency, slo: s.SLO, weight: int32(s.Weight)}
	if r.sk != nil {
		r.sk.add(k, &rec)
		return
	}
	rec.completed, rec.breakdown = s.Completed, s.Breakdown
	r.push(k, rec)
}

// push appends a record under key k to an exact root's tail chunk,
// opening a fresh chunk when the tail is full (a shared tail always is).
func (r *Recorder) push(k key, rec record) {
	rec.key = r.intern(k)
	if n := len(r.chunks); n == 0 || len(r.chunks[n-1].recs) == cap(r.chunks[n-1].recs) {
		size := min(max(r.tal.n, minChunk), maxChunk)
		r.chunks = append(r.chunks, chunk{recs: make([]record, 0, size)})
	}
	c := &r.chunks[len(r.chunks)-1]
	c.recs = append(c.recs, rec)
	c.keys = r.keyTab
	r.tal.add(&rec, k.strict)
	r.sortedOK = false
}

// intern returns k's id in the recorder's key table, adding it on first
// sight.
func (r *Recorder) intern(k key) uint32 {
	if len(r.keyTab) > 0 && k == r.lastKey {
		return r.lastID
	}
	id, ok := r.keyIDs[k]
	if !ok {
		if r.keyIDs == nil {
			r.keyIDs = make(map[key]uint32)
		}
		id = uint32(len(r.keyTab))
		r.keyTab = append(r.keyTab, k)
		r.keyIDs[k] = id
	}
	r.lastKey, r.lastID = k, id
	return id
}

// Merge folds other's samples, read through other's own selection, into
// r. An exact root's chunks are shared, not copied; an exact view's
// selected records are copied. Either way r's tally continues the scan
// in sample order, so it equals the tally of a recorder that added the
// same samples one by one — summing the two tallies would round latSum
// differently. Merging a sketch into an exact recorder turns r into a
// sketch recorder — the sketch's samples cannot be recovered — after
// folding r's own samples into its aggregates.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil {
		return
	}
	if r.isView() {
		r.detach()
	}
	if r.sk == nil && other.sk != nil {
		exact := *r
		*r = *NewSketchRecorder()
		r.Merge(&exact)
	}
	switch {
	case r.sk != nil && other.sk != nil:
		for _, k := range other.visibleKeys() {
			r.sk.merge(k, other.sk.aggs[k])
		}
	case r.sk != nil:
		other.each(func(_ recPos, c *chunk, rec *record) { r.sk.add(c.keys[rec.key], rec) })
	case other.pos != nil:
		other.each(func(_ recPos, c *chunk, rec *record) { r.push(c.keys[rec.key], *rec) })
	default:
		for _, c := range other.chunks {
			// Cap the shared header at its length: it is full, so no
			// append through it reaches the records the donor adds later.
			c.recs = c.recs[:len(c.recs):len(c.recs)]
			c.keys = c.keys[:len(c.keys):len(c.keys)]
			r.chunks = append(r.chunks, c)
			for i := range c.recs {
				r.tal.add(&c.recs[i], c.keys[c.recs[i].key].strict)
			}
		}
		r.sortedOK = false
	}
}

// each visits the visible records in order with their positions and
// chunks (exact storage).
func (r *Recorder) each(fn func(p recPos, c *chunk, rec *record)) {
	if r.pos != nil {
		for _, p := range r.pos {
			c := &r.chunks[p.c]
			fn(p, c, &c.recs[p.i])
		}
		return
	}
	for ci := range r.chunks {
		c := &r.chunks[ci]
		for i := range c.recs {
			fn(recPos{uint32(ci), uint32(i)}, c, &c.recs[i])
		}
	}
}

// at returns the record at p (exact storage).
func (r *Recorder) at(p recPos) *record { return &r.chunks[p.c].recs[p.i] }

// visibleKeys returns the aggregate keys visible through this recorder,
// sorted (sketch storage).
func (r *Recorder) visibleKeys() []key {
	if r.keys != nil {
		return r.keys
	}
	return r.sk.sortedKeys()
}

// count is the recorder's one counting scan: the tally of the visible
// samples that completed by horizon (horizon <= 0 keeps everything;
// sketch storage keeps no completion times and keeps everything too).
func (r *Recorder) count(horizon float64) tally {
	var t tally
	switch {
	case r.sk != nil:
		for _, k := range r.visibleKeys() {
			t.merge(&r.sk.aggs[k].tally)
		}
	case horizon <= 0:
		t = r.tal
	default:
		r.each(func(_ recPos, c *chunk, rec *record) {
			if rec.completed <= horizon {
				t.add(rec, c.keys[rec.key].strict)
			}
		})
	}
	return t
}

// Len returns the number of samples (not weighted).
func (r *Recorder) Len() int { return r.count(0).n }

// Requests returns the total weighted request count.
func (r *Recorder) Requests() int { return r.count(0).weight }

// where is the one key selection behind Strict, BestEffort, ForModel
// and ForTenant: a view of the samples, or aggregates, whose key keep
// accepts, in this recorder's order. Over exact storage keep runs once
// per key-table entry, not once per record.
func (r *Recorder) where(keep func(key) bool) *Recorder {
	if r.sk != nil {
		v := &Recorder{sk: r.sk, keys: []key{}}
		for _, k := range r.visibleKeys() {
			if keep(k) {
				v.keys = append(v.keys, k)
			}
		}
		return v
	}
	v := &Recorder{chunks: r.chunks, pos: []recPos{}}
	masks := make([][]bool, len(v.chunks))
	for ci, c := range v.chunks {
		masks[ci] = make([]bool, len(c.keys))
		for id, k := range c.keys {
			masks[ci][id] = keep(k)
		}
	}
	r.each(func(p recPos, c *chunk, rec *record) {
		if masks[p.c][rec.key] {
			v.pos = append(v.pos, p)
			v.tal.add(rec, c.keys[rec.key].strict)
		}
	})
	return v
}

// Strict returns the strict-sample subset.
func (r *Recorder) Strict() *Recorder {
	return r.where(func(k key) bool { return k.strict })
}

// BestEffort returns the best-effort subset.
func (r *Recorder) BestEffort() *Recorder {
	return r.where(func(k key) bool { return !k.strict })
}

// ForModel returns samples of one model.
func (r *Recorder) ForModel(name string) *Recorder {
	return r.where(func(k key) bool { return k.model == name })
}

// ForTenant returns samples belonging to one tenant (live control-plane
// traffic tags every sample with its tenant id).
func (r *Recorder) ForTenant(id string) *Recorder {
	return r.where(func(k key) bool { return k.tenant == id })
}

// ratio is met/total, NaN when total is 0.
func ratio(met, total int) float64 {
	if total == 0 {
		return math.NaN()
	}
	return float64(met) / float64(total)
}

// Attainment returns the weighted fraction of samples with a latency
// target (SLO > 0) that met it, across both request classes — the
// per-tenant serving metric of the live control plane, where best-effort
// tenants carry soft targets too. It returns NaN when no sample has a
// target.
func (r *Recorder) Attainment() float64 {
	t := r.count(0)
	return ratio(t.attMet, t.attTotal)
}

// SLOCompliance returns the weighted fraction of strict samples meeting
// their SLO. It returns NaN when there are no strict samples.
func (r *Recorder) SLOCompliance() float64 {
	t := r.count(0)
	return ratio(t.strictMet, t.strictW)
}

// Mean returns the weighted mean latency (NaN when empty). Sketch
// storage keeps the mean exact: per-aggregate sums accumulate in
// arrival order and fold in the fixed sorted key order.
func (r *Recorder) Mean() float64 {
	t := r.count(0)
	if t.weight == 0 {
		return math.NaN()
	}
	return t.latSum / float64(t.weight)
}

// sortedByLatency returns record positions ordered by latency, ties in
// visible order, cached behind a dirty flag: report generation asks for
// many quantiles over the same frozen recorder, and re-sorting per
// quantile made the report path O(n log n) per call. Positions grow
// with visible order, so comparing them breaks ties as a stable sort
// would.
func (r *Recorder) sortedByLatency() []latPos {
	if r.sortedOK {
		return r.byLat
	}
	idx := make([]latPos, 0, r.Len())
	r.each(func(p recPos, _ *chunk, rec *record) { idx = append(idx, latPos{rec.latency, p}) })
	slices.SortFunc(idx, func(a, b latPos) int {
		if c := cmp.Compare(a.lat, b.lat); c != 0 {
			return c
		}
		if c := cmp.Compare(a.c, b.c); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	r.byLat = idx
	r.sortedOK = true
	return idx
}

// mergedSketch folds the visible aggregates' sketches into one (sketch
// storage). Bucket counts are integers, so the merge order cannot
// matter.
func (r *Recorder) mergedSketch() *Sketch {
	keys := r.visibleKeys()
	if len(keys) == 1 {
		return &r.sk.aggs[keys[0]].sk
	}
	merged := &Sketch{}
	for _, k := range keys {
		merged.Merge(&r.sk.aggs[k].sk)
	}
	return merged
}

// recordAtPercentile returns the weighted p-th percentile record
// (0 < p <= 100), or nil when the recorder is empty (exact storage).
func (r *Recorder) recordAtPercentile(p float64) *record {
	if r.Len() == 0 {
		return nil
	}
	idx := r.sortedByLatency()
	target := p / 100 * float64(r.Requests())
	cum := 0.0
	for _, e := range idx {
		rec := r.at(e.recPos)
		cum += float64(rec.weight)
		if cum >= target {
			return rec
		}
	}
	return r.at(idx[len(idx)-1].recPos)
}

// Percentile returns the weighted p-th percentile latency (NaN when
// empty). P99 tail latency is Percentile(99). Over sketch storage the
// value is the deterministic sketch estimate, within SketchAlpha
// relative error of the exact weighted percentile.
func (r *Recorder) Percentile(p float64) float64 {
	if r.sk != nil {
		return r.mergedSketch().Quantile(p)
	}
	rec := r.recordAtPercentile(p)
	if rec == nil {
		return math.NaN()
	}
	return rec.latency
}

// BreakdownAtPercentile returns the latency decomposition of the sample
// sitting at the weighted p-th percentile — how the paper plots "P99
// latency breakdown". Sketch storage retains no per-sample breakdowns
// and returns the zero decomposition.
func (r *Recorder) BreakdownAtPercentile(p float64) gpu.Breakdown {
	if r.sk != nil {
		return gpu.Breakdown{}
	}
	rec := r.recordAtPercentile(p)
	if rec == nil {
		return gpu.Breakdown{}
	}
	return rec.breakdown
}

// CDFPoint is one point of an empirical latency CDF.
type CDFPoint struct {
	// Latency in seconds.
	Latency float64
	// Fraction of requests with latency <= Latency.
	Fraction float64
}

// CDF returns the empirical weighted CDF sampled at up to points evenly
// spaced quantiles.
func (r *Recorder) CDF(points int) []CDFPoint {
	if points <= 0 || r.Len() == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		q := float64(i) / float64(points) * 100
		out = append(out, CDFPoint{Latency: r.Percentile(q), Fraction: q / 100})
	}
	return out
}

// Latencies returns the raw latency list, one value per sample. Used by
// the statistical tests. Sketch storage retains no raw values and
// returns nil.
func (r *Recorder) Latencies() []float64 {
	if r.sk != nil {
		return nil
	}
	out := make([]float64, 0, r.Len())
	r.each(func(_ recPos, _ *chunk, rec *record) { out = append(out, rec.latency) })
	return out
}

// Throughput returns strict requests served per GPU per second within
// the horizon (excluding the post-trace drain; a zero horizon keeps
// everything) — the metric of Figure 10a. Backlogged schemes that only
// finish work during the final drain score lower, as on a real cluster.
// Sketch storage keeps no completion times, so it counts drain-completed
// work too.
func (r *Recorder) Throughput(duration float64, gpus int, horizon float64) float64 {
	if duration <= 0 || gpus <= 0 {
		return 0
	}
	return float64(r.count(horizon).strictW) / duration / float64(gpus)
}

// TotalThroughput returns all requests served per GPU per second within
// the horizon.
func (r *Recorder) TotalThroughput(duration float64, gpus int, horizon float64) float64 {
	if duration <= 0 || gpus <= 0 {
		return 0
	}
	return float64(r.count(horizon).weight) / duration / float64(gpus)
}

// Summary bundles the headline numbers for one scheme/model cell.
type Summary struct {
	SLOCompliance float64       `json:"sloCompliance"`
	P50           float64       `json:"p50Seconds"`
	P99           float64       `json:"p99Seconds"`
	Mean          float64       `json:"meanSeconds"`
	P99Breakdown  gpu.Breakdown `json:"p99Breakdown"`
	Requests      int           `json:"requests"`
}

// Summarize computes the standard summary over the recorder's strict
// samples (the paper's headline metrics are strict-only).
func (r *Recorder) Summarize() Summary {
	strict := r.Strict()
	return Summary{
		SLOCompliance: r.SLOCompliance(),
		P50:           strict.Percentile(50),
		P99:           strict.Percentile(99),
		Mean:          strict.Mean(),
		P99Breakdown:  strict.BreakdownAtPercentile(99),
		Requests:      strict.Requests(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("SLO %.2f%%, P50 %.1fms, P99 %.1fms over %d reqs",
		s.SLOCompliance*100, s.P50*1000, s.P99*1000, s.Requests)
}

// ModelStats is one model's row in a Snapshot.
type ModelStats struct {
	// Model is the model name.
	Model string `json:"model"`
	// Requests is the weighted request count across both classes.
	Requests int `json:"requests"`
	// StrictRequests is the weighted strict-class request count.
	StrictRequests int `json:"strictRequests"`
	// P50 and P99 are weighted latency percentiles over all the model's
	// samples, in seconds.
	P50 float64 `json:"p50Seconds"`
	P99 float64 `json:"p99Seconds"`
	// SLOCompliance is the weighted fraction of strict requests meeting
	// their SLO; 0 when StrictRequests is 0 (kept finite so snapshots
	// survive JSON encoding — check StrictRequests to distinguish "none
	// measured" from "all missed").
	SLOCompliance float64 `json:"sloCompliance"`
}

// Snapshot summarizes the recorder per model, sorted by model name, for
// export surfaces (proteand's /metrics and simulate responses). Unlike
// Summarize, percentiles span both request classes — a snapshot is an
// operational view of everything served, not the paper's strict-only
// headline.
func (r *Recorder) Snapshot() []ModelStats {
	seen := make(map[string]bool)
	if r.sk != nil {
		for _, k := range r.visibleKeys() {
			seen[k.model] = true
		}
	} else {
		r.each(func(_ recPos, c *chunk, rec *record) { seen[c.keys[rec.key].model] = true })
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ModelStats, 0, len(names))
	for _, name := range names {
		sub := r.ForModel(name)
		strict := sub.Strict()
		st := ModelStats{
			Model:          name,
			Requests:       sub.Requests(),
			StrictRequests: strict.Requests(),
			P50:            sub.Percentile(50),
			P99:            sub.Percentile(99),
		}
		if st.StrictRequests > 0 {
			st.SLOCompliance = sub.SLOCompliance()
		}
		out = append(out, st)
	}
	return out
}

// ErrTooFewSamples reports statistics requested on degenerate inputs.
var ErrTooFewSamples = errors.New("metrics: too few samples")
