package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"protean/internal/chaos"
	"protean/internal/obs"
)

// fig2QuickGolden pins the SHA-256 of the fig2 quick-mode text report at
// seed 1. The simulation promises byte-identical output for a given seed
// across refactors — this hash is the regression tripwire for that
// promise. If it fires, the change altered simulation semantics (event
// ordering, float evaluation order, table formatting): either the change
// is a bug, or it is an intentional semantic change and the new hash
// must be re-pinned in the same commit with an explanation.
//
// Last re-pinned when the vm fleet, service jitter, and chaos draws
// moved from the shared root stream onto derived child streams
// (sim.Stream.Child), arrivals and batching moved to a gateway lane,
// per-node work moved to node lanes with lane-first tie ordering, and
// sealed batches began dispatching at the next dispatch-quantum
// boundary instead of instantly at seal time. Every drawn value and
// some event interleavings changed then, so all experiment numbers
// shifted.
const fig2QuickGolden = "f821b5ce18cfe6c782f34e0a16217551c130b5d2a500c6d6428c78de00253b59"

func TestFig2QuickGoldenHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-mode experiment; skipped in -short")
	}
	if got := fig2QuickHash(t, Params{Quick: true, Seed: 1, Parallel: 1}); got != fig2QuickGolden {
		t.Errorf("fig2 quick report hash = %s, want %s\n"+
			"The report bytes changed. If this is intentional, re-pin the"+
			" golden hash in the same commit and explain the semantic change.", got, fig2QuickGolden)
	}
}

// TestChaosDisabledIsByteIdentical is the chaos-off identity property:
// a Config with Enabled false — even one carrying non-zero fault rates —
// must leave the run bit-for-bit identical to a build without the chaos
// subsystem, because the disabled path draws zero random numbers and
// schedules zero timers. The pre-PR fig2 golden hash is the witness.
func TestChaosDisabledIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-mode experiment; skipped in -short")
	}
	off := chaos.DefaultConfig()
	off.Enabled = false // rates stay non-zero: only the master switch is off
	p := Params{Quick: true, Seed: 1, Parallel: 1, Chaos: off}
	if got := fig2QuickHash(t, p); got != fig2QuickGolden {
		t.Errorf("fig2 hash with chaos disabled = %s, want pre-chaos golden %s\n"+
			"A disabled injector perturbed the simulation (RNG draw or timer leak).",
			got, fig2QuickGolden)
	}
}

// TestChaosReportParallelIdentity: the chaos fault sweep renders
// byte-identically at -parallel 1 and -parallel 4, i.e. the fault
// schedule is a pure function of the seed, independent of worker
// scheduling.
func TestChaosReportParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep twice; skipped in -short")
	}
	render := func(parallel int) string {
		e, ok := ByID("chaos")
		if !ok {
			t.Fatal("chaos experiment not registered")
		}
		report, err := RunReplicated(e, Params{Quick: true, Seed: 1, Parallel: parallel}, 1)
		if err != nil {
			t.Fatalf("run chaos (parallel %d): %v", parallel, err)
		}
		var sb strings.Builder
		if err := report.RenderAs(&sb, FormatText); err != nil {
			t.Fatalf("render: %v", err)
		}
		return sb.String()
	}
	seq, par := render(1), render(4)
	if seq != par {
		t.Error("chaos report differs between -parallel 1 and -parallel 4")
	}
	// Identity would be vacuous if the sweep injected nothing; the
	// straggler columns are non-zero at every non-zero scale, so the
	// rendered report must contain at least one fault counter > 0.
	if !strings.Contains(seq, "stragglers") {
		t.Error("chaos report missing the resilience-counters table")
	}
}

// fig2TraceGolden pins the SHA-256 of the seed-1 fig2 quick JSONL
// trace. Lanes and the root share one event heap ordered by (time,
// lane rank, sequence), so the emission order is the (time, lane,
// emission) order the trace format promises without any buffering or
// merge step; this hash was taken before that single-heap rewrite and
// must not move with it.
const fig2TraceGolden = "13bb2aeb58b4712049b0116dd86db337962f7beb1bdc27d6b2ee4fc7ca5d7285"

// TestFig2TraceGolden is the tracing determinism contract: for several
// seeds the fig2 quick report with tracing on is byte-identical to the
// report with tracing off (the tracer only observes), and the seed-1
// JSONL trace matches its pinned hash.
func TestFig2TraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig2 ten times; skipped in -short")
	}
	e, ok := ByID("fig2")
	if !ok {
		t.Fatal("fig2 experiment not registered")
	}
	render := func(p Params) string {
		t.Helper()
		rep, err := RunReplicated(e, p, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", p.Seed, err)
		}
		var sb strings.Builder
		if err := rep.RenderAs(&sb, FormatText); err != nil {
			t.Fatalf("render: %v", err)
		}
		return sb.String()
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		plain := render(Params{Quick: true, Seed: seed, Parallel: 1})
		traced := Params{Quick: true, Seed: seed, Parallel: 1, Trace: obs.NewTraceSet()}
		if render(traced) != plain {
			t.Errorf("seed %d: report with tracing on differs from tracing off", seed)
		}
		if traced.Trace.Events() == 0 {
			t.Fatalf("seed %d: no trace events collected", seed)
		}
		if seed != 1 {
			continue
		}
		var jb bytes.Buffer
		if err := obs.WriteJSONL(&jb, traced.Trace.Traces()); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(jb.Bytes())
		if got := hex.EncodeToString(sum[:]); got != fig2TraceGolden {
			t.Errorf("seed 1 fig2 JSONL trace hash = %s, want %s", got, fig2TraceGolden)
		}
	}
}

// fig2QuickHash runs fig2 under p and hashes the rendered text report.
func fig2QuickHash(t *testing.T, p Params) string {
	t.Helper()
	e, ok := ByID("fig2")
	if !ok {
		t.Fatal("fig2 experiment not registered")
	}
	report, err := RunReplicated(e, p, 1)
	if err != nil {
		t.Fatalf("run fig2: %v", err)
	}
	var sb strings.Builder
	if err := report.RenderAs(&sb, FormatText); err != nil {
		t.Fatalf("render: %v", err)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}
