package cluster

import (
	"testing"

	"protean/internal/core"
	"protean/internal/gpu"
	"protean/internal/model"
	"protean/internal/sim"
	"protean/internal/trace"
)

// fitFirst time-shares one full-GPU slice, places every batch on the
// first slice it fits, and never plans a geometry change of its own, so
// a test decides every reconfiguration.
type fitFirst struct{}

func (fitFirst) Name() string                  { return "fit-first" }
func (fitFirst) Sharing() gpu.SharingMode      { return gpu.ShareTimeSlice }
func (fitFirst) InitialGeometry() gpu.Geometry { return gpu.MustGeometry(gpu.Profile7g) }
func (fitFirst) ReorderRequests() bool         { return false }
func (fitFirst) SMCap(bool) float64            { return 0 }
func (fitFirst) DesiredGeometry(*gpu.GPU, core.QueueView) (gpu.Geometry, bool) {
	return gpu.Geometry{}, false
}
func (fitFirst) Place(g *gpu.GPU, m *model.Model, _ bool) (*gpu.Slice, error) {
	for _, sl := range g.Slices() {
		if !sl.Failed() && m.MemGB(sl.Prof) <= sl.Prof.MemGB {
			return sl, nil
		}
	}
	return nil, core.ErrNoSlice
}

// startLive arms a one-node fit-first cluster and ingests batches full
// batches of strict requests for m at t = 0.
func startLive(t *testing.T, m *model.Model, batches int) *Cluster {
	t.Helper()
	c, err := New(sim.New(3), Config{Nodes: 1, Policy: func() core.Policy { return fitFirst{} }})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.StartLive(); err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	for i := 0; i < batches*m.BatchSize(); i++ {
		req := trace.Request{ID: uint64(i), Tenant: "acme", Model: m, Strict: true}
		if err := c.Ingest(req); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	return c
}

// reconfigureTo starts a geometry change on node 0 the way the monitor
// does (budget first) and runs the simulation until it has installed.
func reconfigureTo(t *testing.T, c *Cluster, geom gpu.Geometry) {
	t.Helper()
	n := c.nodes[0]
	if !c.budget.TryAcquire() {
		t.Fatal("reconfiguration budget exhausted")
	}
	n.reconfigure(geom)
	for step := 0; n.gpu.Reconfiguring(); step++ {
		if step > 1000 {
			t.Fatal("reconfiguration never finished")
		}
		if err := c.AdvanceTo(c.Now() + 0.5); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
	}
}

// TestLiveSessionLeavesNodeRecordersEmpty asserts a live session hands
// its samples to the serving layer only: node recorders and the drained
// Result's recorder stay empty.
func TestLiveSessionLeavesNodeRecordersEmpty(t *testing.T) {
	m := model.MustByName("ResNet 18")
	c := startLive(t, m, 3)
	if err := c.AdvanceTo(30); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	comps, _ := c.CollectLive()
	samples := 0
	for _, comp := range comps {
		samples += len(comp.Samples)
	}
	if samples != 3*m.BatchSize() {
		t.Fatalf("completion records carry %d samples, want %d", samples, 3*m.BatchSize())
	}
	for _, n := range c.nodes {
		if got := n.recorder.Len(); got != 0 {
			t.Fatalf("node %d recorder holds %d samples during a live session, want 0", n.id, got)
		}
	}
	res, err := c.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := res.Recorder.Len(); got != 0 {
		t.Fatalf("live Result recorder holds %d samples, want 0", got)
	}
	if res.Availability.Completed != 3*m.BatchSize() {
		t.Fatalf("completed %d, want %d", res.Availability.Completed, 3*m.BatchSize())
	}
}

// TestResubmitWithNoFittingSliceRequeues reconfigures a node to a
// geometry too small for the jobs it displaces. The displaced batches
// must take the orphan path — container released, batch re-dispatched —
// and finish once a large slice returns, leaving no outstanding work
// and every offered request completed or dropped.
func TestResubmitWithNoFittingSliceRequeues(t *testing.T) {
	m := model.MustByName("DPN 92") // fits 7g, not 1g
	const batches = 3
	c := startLive(t, m, batches)
	n := c.nodes[0]
	pending := 0
	for step := 0; pending == 0; step++ {
		if step > 1000 {
			t.Fatal("no job ever queued behind the running one")
		}
		if err := c.AdvanceTo(c.Now() + 0.05); err != nil {
			t.Fatalf("AdvanceTo: %v", err)
		}
		pending = len(n.gpu.Slices()[0].Pending())
	}

	small := gpu.MustGeometry(gpu.Profile1g, gpu.Profile1g, gpu.Profile1g, gpu.Profile1g,
		gpu.Profile1g, gpu.Profile1g, gpu.Profile1g)
	reconfigureTo(t, c, small)
	if len(n.held) == 0 {
		t.Fatal("displaced batches were not re-dispatched to the node's held list")
	}
	reconfigureTo(t, c, gpu.MustGeometry(gpu.Profile7g))

	res, err := c.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n.outstanding != 0 || n.outstandingReqs != 0 {
		t.Fatalf("after drain: %d batches / %d requests outstanding, want 0", n.outstanding, n.outstandingReqs)
	}
	a := res.Availability
	if a.Offered != a.Completed+a.Dropped {
		t.Fatalf("offered %d != completed %d + dropped %d", a.Offered, a.Completed, a.Dropped)
	}
	if a.Completed != batches*m.BatchSize() || a.Requeued == 0 {
		t.Fatalf("completed %d (want %d), requeued %d (want > 0)", a.Completed, batches*m.BatchSize(), a.Requeued)
	}
}
