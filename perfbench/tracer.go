package main

import (
	"math/bits"
	"sort"
	"sync"
	"time"

	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/model"
)

// tracer keeps the traced run's spans in memory: one aggregate per
// (parent, name) pair, with a latency histogram for percentiles. Calls
// that happen millions of times (Place) are aggregated per policy
// instance without locking and folded in when the run ends.
type tracer struct {
	mu       sync.Mutex
	spans    map[spanKey]*spanAgg
	policies []*policyStats
}

type spanKey struct{ parent, name string }

// spanAgg is the aggregate of every span with one (parent, name).
type spanAgg struct {
	count int
	total time.Duration
	hist  histogram
}

func (a *spanAgg) add(d time.Duration) {
	a.count++
	a.total += d
	a.hist.add(d)
}

func newTracer() *tracer {
	return &tracer{spans: make(map[spanKey]*spanAgg)}
}

// record adds one finished span. It is safe for concurrent use.
func (t *tracer) record(parent, name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aggLocked(parent, name).add(d)
}

func (t *tracer) aggLocked(parent, name string) *spanAgg {
	k := spanKey{parent, name}
	a := t.spans[k]
	if a == nil {
		a = &spanAgg{}
		t.spans[k] = a
	}
	return a
}

// time runs fn inside a span.
func (t *tracer) time(parent, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t.record(parent, name, time.Since(t0))
	return err
}

// fold merges every policy instance's spans into the span table.
// Call it once the runs that used the wrapped factories have returned.
func (t *tracer) fold() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ps := range t.policies {
		t.aggLocked(ps.scenario, "Place").merge(&ps.place)
		t.aggLocked(ps.scenario, "DesiredGeometry").merge(&ps.geometry)
	}
	t.policies = nil
}

func (a *spanAgg) merge(b *spanAgg) {
	a.count += b.count
	a.total += b.total
	a.hist.merge(&b.hist)
}

// spanRow is one aggregate as written to the span file.
type spanRow struct {
	Parent string  `json:"parent"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is TotalS minus the total of spans whose parent is this
	// span's name. Children running on parallel workers can sum past
	// their parent, so SelfS may read negative there.
	SelfS float64 `json:"self_s"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

// rows returns the span table sorted by parent then name.
func (t *tracer) rows() []spanRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTotal := map[string]time.Duration{}
	for k, a := range t.spans {
		childTotal[k.parent] += a.total
	}
	out := make([]spanRow, 0, len(t.spans))
	for k, a := range t.spans {
		out = append(out, spanRow{
			Parent: k.parent, Name: k.name, Count: a.count,
			TotalS: a.total.Seconds(),
			SelfS:  (a.total - childTotal[k.name]).Seconds(),
			P50Us:  a.hist.quantile(0.50).Seconds() * 1e6,
			P99Us:  a.hist.quantile(0.99).Seconds() * 1e6,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// byName merges every aggregate with this name across parents.
func (t *tracer) byName(name string) *spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var keys []spanKey
	for k := range t.spans {
		if k.name == name {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].parent < keys[j].parent })
	out := &spanAgg{}
	for _, k := range keys {
		out.merge(t.spans[k])
	}
	return out
}

// histogram is a log-linear duration histogram: 32 buckets per power
// of two of nanoseconds, so quantiles carry at most ~3% relative error.
type histogram struct {
	counts []uint64
}

const histSub = 32

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1
	mant := (ns >> (exp - 5)) & (histSub - 1)
	return (exp-4)*histSub + int(mant)
}

// histLower is the smallest duration that falls in bucket i.
func histLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := i/histSub + 4
	mant := uint64(i % histSub)
	return (histSub + mant) << (exp - 5)
}

func (h *histogram) add(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	i := histBucket(ns)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
}

func (h *histogram) merge(o *histogram) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the lower bound of the bucket holding the q-th
// quantile (0 when empty).
func (h *histogram) quantile(q float64) time.Duration {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if float64(cum) >= target && c > 0 {
			return time.Duration(histLower(i))
		}
	}
	return time.Duration(histLower(len(h.counts) - 1))
}

// policyStats is one policy instance's spans and counters. Each
// instance serves one node of one scenario and is only ever called from
// that node's simulation context, so it needs no lock.
type policyStats struct {
	scenario    string
	place       spanAgg
	geometry    spanAgg
	placeFailed int
}

// wrapFactory times every Place and DesiredGeometry call of the
// policies f builds, with the scenario label as the spans' parent. The
// wrapper only observes: it returns exactly what the wrapped policy
// returns, and it forwards core.DowntimeOverrider when the wrapped
// policy implements it, so the run's outputs are unchanged.
func (t *tracer) wrapFactory(scenario string, f core.Factory) core.Factory {
	return func() core.Policy {
		inner := f()
		ps := &policyStats{scenario: scenario}
		t.mu.Lock()
		t.policies = append(t.policies, ps)
		t.mu.Unlock()
		tp := &timedPolicy{Policy: inner, stats: ps}
		if ov, ok := inner.(core.DowntimeOverrider); ok {
			return &timedOverrider{timedPolicy: tp, ov: ov}
		}
		return tp
	}
}

// timedPolicy is the timing wrapper around one policy instance.
type timedPolicy struct {
	core.Policy
	stats *policyStats
}

func (p *timedPolicy) Place(g *gpu.GPU, m *model.Model, strict bool) (*gpu.Slice, error) {
	t0 := time.Now()
	sl, err := p.Policy.Place(g, m, strict)
	p.stats.place.add(time.Since(t0))
	if err != nil {
		p.stats.placeFailed++
	}
	return sl, err
}

func (p *timedPolicy) DesiredGeometry(g *gpu.GPU, view core.QueueView) (gpu.Geometry, bool) {
	t0 := time.Now()
	geo, change := p.Policy.DesiredGeometry(g, view)
	p.stats.geometry.add(time.Since(t0))
	return geo, change
}

// timedOverrider is timedPolicy for policies that override the
// reconfiguration downtime.
type timedOverrider struct {
	*timedPolicy
	ov core.DowntimeOverrider
}

func (p *timedOverrider) ReconfigDowntime() (float64, bool) { return p.ov.ReconfigDowntime() }

// placeFailed sums failed Place calls across every instance; call
// before fold, which releases the instances.
func (t *tracer) placeFailed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ps := range t.policies {
		n += ps.placeFailed
	}
	return n
}
