package sim

// Tests for lanes — the event order across the root and its lanes,
// per-lane clocks, lane streams — plus regression tests for the
// RunUntil clock clamp, the timerHeap.Push type panic, Reschedule of a
// compacted-away timer, Ticker.Stop teardown, and the Child
// stream-derivation contract lanes are built on.

import (
	"fmt"
	"strings"
	"testing"

	"protean/internal/obs"
)

// TestRunUntilNeverRewindsClock covers both exits of the event loop: a
// horizon in the past must leave the clock untouched whether the next
// event sits beyond the horizon (queue-nonempty path) or the queue has
// drained (queue-empty path). Before the fix, the queue-nonempty exit
// set s.now = horizon unconditionally, rewinding virtual time.
func TestRunUntilNeverRewindsClock(t *testing.T) {
	s := New(1)
	if _, err := s.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(20, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v after RunUntil(10), want 10", s.Now())
	}

	// Queue-nonempty path: the event at 20 is still pending.
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 10 {
		t.Fatalf("clock rewound to %v by RunUntil(5) with a pending event, want 10", s.Now())
	}

	// Queue-empty path: drain, then ask for a past horizon again.
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.Now() != 20 {
		t.Fatalf("after drain: pending=%d now=%v, want 0 and 20", s.Pending(), s.Now())
	}
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 20 {
		t.Fatalf("clock rewound to %v by RunUntil(5) on an empty queue, want 20", s.Now())
	}
}

// TestTimerHeapPushRejectsForeignType pins that pushing anything but a
// *Timer panics instead of silently dropping the value (a silent drop
// would desynchronise the active counter from the heap).
func TestTimerHeapPushRejectsForeignType(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("timerHeap.Push accepted a non-*Timer value")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "want *Timer") {
			t.Fatalf("panic message %q does not name the expected type", msg)
		}
	}()
	var h timerHeap
	h.Push("not a timer")
}

// TestRescheduleCancelledThenCompactedTimer exercises the index == -1
// branch of Reschedule after maybeCompact has evicted the cancelled
// timer from the heap entirely: re-arming must re-increment the active
// count exactly once and the timer must fire exactly once.
func TestRescheduleCancelledThenCompactedTimer(t *testing.T) {
	s := New(1)
	// Fill past compactMinLen so compaction can trigger, then cancel a
	// majority so cancelled entries outnumber live ones.
	timers := make([]*Timer, 0, 2*compactMinLen)
	for i := 0; i < 2*compactMinLen; i++ {
		tm, err := s.At(float64(i+1), func() {})
		if err != nil {
			t.Fatal(err)
		}
		timers = append(timers, tm)
	}
	victim := timers[0]
	for _, tm := range timers[:len(timers)/2+1] {
		tm.Cancel()
	}
	if victim.index != -1 {
		t.Fatalf("victim timer still in the heap (index %d); compaction did not run", victim.index)
	}
	fired := 0
	victim.fn = func() { fired++ }

	before := s.Pending()
	if err := victim.Reschedule(0.5); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != before+1 {
		t.Fatalf("Pending went %d -> %d across Reschedule of a compacted timer, want +1", before, got)
	}
	if !victim.Active() {
		t.Fatal("rescheduled timer is not active")
	}
	// Re-arming an already-pending timer must NOT bump the count again.
	if err := victim.Reschedule(0.6); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != before+1 {
		t.Fatalf("Pending = %d after second Reschedule, want %d (no double count)", got, before+1)
	}
	if err := s.RunUntil(0.6); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("rescheduled timer fired %d times, want 1", fired)
	}
}

// TestTickerStopReleasesReferences pins that Stop drops the ticker's
// self-referential closure and timer so a stopped ticker holds nothing
// alive, and that no further tick runs.
func TestTickerStopReleasesReferences(t *testing.T) {
	s := New(1)
	ticks := 0
	tk, err := s.Every(1, func() { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Fatalf("ticks = %d before Stop, want 2", ticks)
	}
	tk.Stop()
	if tk.timer != nil || tk.fireNext != nil {
		t.Fatal("Stop left timer/fireNext references behind")
	}
	tk.Stop() // idempotent on a torn-down ticker
	if err := s.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Fatalf("stopped ticker ticked again: %d ticks, want 2", ticks)
	}
}

// TestTickerStopRacesPendingFireAtSameInstant: a Stop that runs at the
// exact virtual instant a tick is already pending (the stopping event
// was scheduled first, so it wins the tie-break) must keep that tick
// from firing — the cancelled timer is skipped, not executed.
func TestTickerStopRacesPendingFireAtSameInstant(t *testing.T) {
	s := New(1)
	ticks := 0
	var tk *Ticker
	// Scheduled before Every, so at t=1 this runs ahead of the pending
	// first fire scheduled for the same instant.
	if _, err := s.At(1, func() { tk.Stop() }); err != nil {
		t.Fatal(err)
	}
	var err error
	tk, err = s.Every(1, func() { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 0 {
		t.Fatalf("tick fired %d times after a same-instant Stop, want 0", ticks)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop", s.Pending())
	}
}

// TestChildStreamsStableAndIndependent pins the derivation contract
// lanes and subsystems rely on: a child's sequence depends only on
// (parent seed, label) — not on parent draws, sibling derivations, or
// how many lanes exist — and distinct labels yield distinct streams.
func TestChildStreamsStableAndIndependent(t *testing.T) {
	draw := func(st *Stream) [4]float64 {
		var v [4]float64
		for i := range v {
			v[i] = st.Float64()
		}
		return v
	}

	pristine := draw(New(7).Rand().Child("vm/fleet"))

	// Parent draws and sibling children must not shift the sequence.
	s := New(7)
	s.Rand().Float64()
	s.Rand().Child("chaos")
	if got := draw(s.Rand().Child("vm/fleet")); got != pristine {
		t.Fatalf("child sequence shifted by parent activity: %v != %v", got, pristine)
	}

	// Lane creation (itself a Child derivation) must not shift it
	// either, so adding a node leaves every other stream untouched.
	for _, lanes := range []int{1, 4} {
		s := New(7)
		for i := 0; i < lanes; i++ {
			s.Lane(fmt.Sprintf("node/%d", i))
		}
		if got := draw(s.Rand().Child("vm/fleet")); got != pristine {
			t.Fatalf("child sequence shifted by %d lane derivations: %v != %v", lanes, got, pristine)
		}
	}

	if draw(New(7).Rand().Child("chaos")) == pristine {
		t.Fatal("distinct labels produced identical streams")
	}
	if draw(New(8).Rand().Child("vm/fleet")) == pristine {
		t.Fatal("distinct parent seeds produced identical child streams")
	}
	if got := New(7).Rand().Child("vm/fleet").Seed(); got != New(7).Rand().Child("vm/fleet").Seed() {
		t.Fatalf("child seed not stable: %d", got)
	}
}

// collectTracer records events in emission order.
type collectTracer struct{ events []obs.Event }

func (c *collectTracer) Enabled() bool     { return true }
func (c *collectTracer) Emit(ev obs.Event) { c.events = append(c.events, ev) }

// TestEqualTimeEventOrder pins the tie rule at one instant: the gateway
// lane first, then node lanes in creation order, then the root, each
// domain in scheduling order — whatever order the events were
// scheduled in. A lane event a root event schedules for its own instant
// still runs before the next root event at that instant. Trace events
// arrive in the same order, so no merge step is needed.
func TestEqualTimeEventOrder(t *testing.T) {
	s := New(1)
	tr := &collectTracer{}
	s.SetTracer(tr)
	gw := s.Lane("gateway")
	n0 := s.Lane("node/0")
	n1 := s.Lane("node/1")

	var got []string
	on := func(d *Sim, name string, node int) func() {
		return func() {
			got = append(got, name)
			ev := obs.At(d.Now(), obs.KindDispatch)
			ev.Node = node
			ev.Detail = name
			d.Tracer().Emit(ev)
		}
	}
	at := func(d *Sim, t0 float64, fn func()) {
		t.Helper()
		if _, err := d.At(t0, fn); err != nil {
			t.Fatal(err)
		}
	}
	// Scheduled in reverse of the expected order.
	at(s, 1, on(s, "root-a", -1))
	at(n1, 1, on(n1, "n1", 1))
	at(n0, 1, on(n0, "n0-a", 0))
	at(s, 1, on(s, "root-b", -1))
	at(n0, 1, on(n0, "n0-b", 0))
	at(gw, 1, on(gw, "gw", -1))
	// At t=2 the first root event schedules a node-1 event for the same
	// instant; it runs before the second root event there.
	at(s, 2, func() {
		on(s, "root-c", -1)()
		at(n1, 2, on(n1, "n1-from-root", 1))
	})
	at(s, 2, on(s, "root-d", -1))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	want := []string{"gw", "n0-a", "n0-b", "n1", "root-a", "root-b", "root-c", "n1-from-root", "root-d"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	if len(tr.events) != len(want) {
		t.Fatalf("%d trace events, want %d", len(tr.events), len(want))
	}
	for i, ev := range tr.events {
		if ev.Detail != want[i] {
			t.Fatalf("trace event %d = %q, want %q (trace order must be execution order)", i, ev.Detail, want[i])
		}
	}
	if s.Executed() != uint64(len(want)) || gw.Executed() != s.Executed() {
		t.Fatalf("Executed root=%d lane=%d, want %d for both", s.Executed(), gw.Executed(), len(want))
	}
}

// TestLaneClockAfterRun pins per-lane clocks: after an unbounded Run a
// lane's Now is the later of its own last event and the last root
// event, and the root's is its own last event. A single global clock
// would leave every domain at the last event overall — node/0 would
// read 7 instead of 3, which is what moves a node's busy fraction and
// utilisation (they divide by the node's own clock at drain). A
// bounded RunUntil moves every domain to the horizon.
func TestLaneClockAfterRun(t *testing.T) {
	s := New(1)
	n0 := s.Lane("node/0")
	n1 := s.Lane("node/1")
	n0.MustAfter(1, func() {})
	s.MustAfter(3, func() {})
	n1.MustAfter(7, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 3 || n0.Now() != 3 || n1.Now() != 7 {
		t.Fatalf("clocks root=%v node/0=%v node/1=%v, want 3, 3, 7", s.Now(), n0.Now(), n1.Now())
	}
	// Scheduling on a lane is relative to its own clock.
	fired := 0.0
	n1.MustAfter(1, func() { fired = n1.Now() })
	if _, err := n1.At(6, func() {}); err == nil {
		t.Fatal("lane accepted an event before its own clock")
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if fired != 8 {
		t.Fatalf("lane event after Run fired at %v, want 8", fired)
	}
	for name, d := range map[string]*Sim{"root": s, "node/0": n0, "node/1": n1} {
		if d.Now() != 20 {
			t.Fatalf("%s clock = %v after RunUntil(20), want 20", name, d.Now())
		}
	}
}

// TestLaneStreamLabel pins a lane's random stream to the
// Rand().Child("lane/"+label) derivation; the seed and first draw are
// the values that derivation has always produced, so per-node draws
// keep their sequences.
func TestLaneStreamLabel(t *testing.T) {
	s := New(7)
	s.Lane("gateway")
	ln := s.Lane("node/3")
	if got, want := ln.Rand().Seed(), New(7).Rand().Child("lane/node/3").Seed(); got != want {
		t.Fatalf("lane seed %d, want Child(\"lane/node/3\") seed %d", got, want)
	}
	if got := ln.Rand().Seed(); got != 9408270547914406156 {
		t.Fatalf("lane seed %d, want pinned 9408270547914406156", got)
	}
	if got := ln.Rand().Float64(); got != 0.39510702908757406 {
		t.Fatalf("lane first draw %v, want pinned 0.39510702908757406", got)
	}
}

// TestLaneMisuseIsRejected pins the structural rules: lanes cannot be
// nested, and a lane cannot be driven directly — only through its root.
func TestLaneMisuseIsRejected(t *testing.T) {
	s := New(1)
	ln := s.Lane("node/0")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Lane did not panic")
			}
		}()
		ln.Lane("inner")
	}()
	if err := ln.RunUntil(1); err == nil {
		t.Error("RunUntil on a lane did not error")
	}
	// Stopping a lane stops the root.
	if _, err := s.At(1, func() {}); err != nil {
		t.Fatal(err)
	}
	ln.Stop()
	if err := s.Run(); err != ErrStopped {
		t.Errorf("root Run after lane Stop = %v, want ErrStopped", err)
	}
}
