package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
)

// oracleTrace is a rotating heavy-BE mix, so the Oracle's upcoming-load
// view changes from window to window.
func oracleTrace() trace.Config {
	return trace.Config{
		Rate: trace.Constant(1500),
		Mix: trace.Mix{
			StrictFrac:   0.5,
			Strict:       model.MustByName("ShuffleNet V2"),
			BEPool:       model.VisionHI(),
			RotatePeriod: 5,
		},
		Duration: 24,
		Seed:     7,
	}
}

// viewSpy forwards to a wrapped policy and records the upcoming-window
// load of every planning call.
type viewSpy struct {
	core.Policy
	next *[]int
}

func (v viewSpy) DesiredGeometry(g *gpu.GPU, view core.QueueView) (gpu.Geometry, bool) {
	*v.next = append(*v.next, view.NextWindowBEBatches)
	return v.Policy.DesiredGeometry(g, view)
}

func (v viewSpy) ReconfigDowntime() (float64, bool) {
	if ov, ok := v.Policy.(core.DowntimeOverrider); ok {
		return ov.ReconfigDowntime()
	}
	return 0, false
}

// runOracle runs the Oracle on src and returns a rendering of the
// result plus the NextWindowBEBatches of every planning call, in call
// order (node order within each monitor tick).
func runOracle(t *testing.T, src trace.Source, nodes int, duration float64) (string, []int) {
	t.Helper()
	var next []int
	inner := core.NewOracle(core.OracleConfig{})
	c, err := New(sim.New(7), Config{
		Nodes:  nodes,
		Policy: func() core.Policy { return viewSpy{Policy: inner(), next: &next} },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run(src, duration)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%+v\n%+v\n", res.Recorder.Summarize(), res.Availability, res.Timeline)
	fmt.Fprintf(&b, "reconfigs=%d cold=%d util=%v/%v/%v\n",
		res.Reconfigs, res.ColdStarts, res.ComputeUtil, res.MemUtil, res.BusyUtil)
	return b.String(), next
}

// TestOracleSeesUpcomingLoadFromStream runs one Oracle cell from a
// stream and from the replayed materialised trace: both must render the
// same, and the planner must see, at every tick, the per-node BE batch
// count of the next monitor window computed independently from the
// slice.
func TestOracleSeesUpcomingLoadFromStream(t *testing.T) {
	const nodes = 2
	tc := oracleTrace()
	reqs, err := trace.Generate(tc)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	st, err := trace.NewStream(tc)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	fromStream, seen := runOracle(t, st, nodes, tc.Duration)
	fromSlice, seenSlice := runOracle(t, trace.Replay(reqs), nodes, tc.Duration)
	if fromStream != fromSlice {
		t.Fatalf("stream and replay diverge:\nstream:\n%s\nreplay:\n%s", fromStream, fromSlice)
	}
	if fmt.Sprint(seen) != fmt.Sprint(seenSlice) {
		t.Fatalf("upcoming loads differ: stream %v, replay %v", seen, seenSlice)
	}

	const w = 2.0 // default MonitorInterval
	beReqs := map[int]int{}
	batch := map[int]int{}
	for _, r := range reqs {
		if r.Strict {
			continue
		}
		idx := int(r.Arrival / w)
		beReqs[idx]++
		if batch[idx] == 0 {
			batch[idx] = r.Model.BatchSize()
		}
	}
	ticks := int(tc.Duration / w)
	if len(seen) != ticks*nodes {
		t.Fatalf("%d planning calls, want %d ticks x %d nodes", len(seen), ticks, nodes)
	}
	nonZero := 0
	for i, got := range seen {
		win := i/nodes + 2 // tick k = i/nodes+1 plans window k+1
		want := 0
		if batch[win] > 0 {
			want = int(math.Ceil(float64(beReqs[win]) / float64(batch[win]) / nodes))
		}
		if got != want {
			t.Fatalf("call %d (window %d): NextWindowBEBatches = %d, want %d", i, win, got, want)
		}
		if got > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("the Oracle never saw a non-zero upcoming BE load")
	}
}

// pullRecorder is a Source that records, at every pull, how far the
// previously pulled arrival lies ahead of the simulation clock.
type pullRecorder struct {
	src   trace.Source
	sim   *sim.Sim
	prev  float64
	pulls int
	ahead []float64
}

func (p *pullRecorder) Next() (trace.Request, bool) {
	if p.pulls > 0 {
		p.ahead = append(p.ahead, p.prev-p.sim.Now())
	}
	p.pulls++
	r, ok := p.src.Next()
	p.prev = r.Arrival
	return r, ok
}

// TestLookaheadBound checks that the run reads its source once and
// never pulls more than two monitor windows ahead: whenever it pulls,
// the arrival it pulled before lies at most 2 x MonitorInterval past
// the clock (so only the newest pulled arrival may lie further out).
func TestLookaheadBound(t *testing.T) {
	tc := oracleTrace()
	st, err := trace.NewStream(tc)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	s := sim.New(3)
	c, err := New(s, Config{Nodes: 2, Policy: core.NewOracle(core.OracleConfig{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := &pullRecorder{src: st, sim: s}
	res, err := c.Run(rec, tc.Duration)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := res.Availability.Offered + 1; rec.pulls != want {
		t.Errorf("source pulled %d times, want %d (each arrival once, plus the end)", rec.pulls, want)
	}
	bound := 2 * c.cfg.MonitorInterval
	maxAhead := 0.0
	for i, d := range rec.ahead {
		if d > bound {
			t.Fatalf("pull %d: previous arrival %.4fs ahead of the clock, bound %.1fs", i+1, d, bound)
		}
		maxAhead = math.Max(maxAhead, d)
	}
	if maxAhead < c.cfg.MonitorInterval {
		t.Errorf("lookahead peaked at %.3fs; the monitor should pull a full window ahead", maxAhead)
	}
}

// orderedSource yields its requests exactly as given.
type orderedSource []trace.Request

func (o *orderedSource) Next() (trace.Request, bool) {
	if len(*o) == 0 {
		return trace.Request{}, false
	}
	r := (*o)[0]
	*o = (*o)[1:]
	return r, true
}

func TestRunRejectsOutOfOrderSource(t *testing.T) {
	m := model.MustByName("ResNet 50")
	src := orderedSource{
		{ID: 0, Model: m, Strict: true, Arrival: 1.0},
		{ID: 1, Model: m, Strict: true, Arrival: 0.5},
		{ID: 2, Model: m, Strict: true, Arrival: 2.0},
	}
	c, err := New(sim.New(1), Config{Nodes: 1, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run(&src, 5)
	if err == nil {
		t.Fatalf("out-of-order source accepted (offered %d)", res.Availability.Offered)
	}
	if !strings.Contains(err.Error(), "before the previous arrival") {
		t.Errorf("error %q does not name the ordering violation", err)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	m := model.MustByName("ResNet 50")
	reqs := []trace.Request{
		{ID: 0, Model: m, Arrival: 0.1},
		{ID: 1, Model: m, Arrival: 0.2},
		{ID: 2, Model: m, Arrival: 1.0},
		{ID: 3, Model: m, Arrival: 1.5},
	}
	c, err := New(sim.New(1), Config{Nodes: 1, Policy: core.NewProtean(core.ProteanConfig{})})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := c.Run(trace.Replay(reqs), 1.0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Availability.Offered != 2 {
		t.Errorf("offered %d requests, want the 2 before the 1s horizon", res.Availability.Offered)
	}
}
