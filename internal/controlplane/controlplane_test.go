package controlplane

import (
	"bytes"
	"strings"
	"testing"

	"protean/internal/obs"
)

func testOpts() Options {
	return Options{Seed: 7, Nodes: 4, KeepWarmDefault: 5}
}

func mustPlane(t *testing.T, opts Options) *Plane {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func register(t *testing.T, p *Plane, cfg TenantConfig) {
	t.Helper()
	if err := p.RegisterTenant(cfg); err != nil {
		t.Fatalf("RegisterTenant(%s): %v", cfg.ID, err)
	}
}

func TestPlaneServesAndMeters(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "acme", Model: "ResNet 18", Class: "gold"})

	for i := 0; i < 20; i++ {
		vt := 0.1 * float64(i)
		if _, err := p.IngestAt(vt, "acme", 5); err != nil {
			t.Fatalf("IngestAt: %v", err)
		}
	}
	if err := p.AdvanceTo(10); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	u, err := p.Usage("acme")
	if err != nil {
		t.Fatalf("Usage: %v", err)
	}
	if u.Admitted != 100 {
		t.Fatalf("admitted = %d, want 100", u.Admitted)
	}
	if u.Completed == 0 {
		t.Fatal("no completions after 10 virtual seconds")
	}
	if u.GPUSeconds <= 0 || u.CostDollars <= 0 {
		t.Fatalf("metering empty: gpuSeconds=%v cost=%v", u.GPUSeconds, u.CostDollars)
	}
	if len(u.SliceSecondsByProfile) == 0 {
		t.Fatal("no per-profile slice seconds")
	}
	if len(u.RecentWindows) == 0 {
		t.Fatal("no metering windows")
	}
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	final := sum.Tenants[0]
	if final.Completed != final.Admitted-final.Dropped {
		t.Fatalf("drained plane unbalanced: admitted=%d completed=%d dropped=%d",
			final.Admitted, final.Completed, final.Dropped)
	}
	if _, err := p.IngestAt(11, "acme", 1); err == nil {
		t.Fatal("ingest after drain should fail")
	}
}

func TestRateLimitRejects(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "tiny", Model: "MobileNet", Class: "bronze", RatePerSec: 1, Burst: 2})

	d1, err := p.IngestAt(0.1, "tiny", 2)
	if err != nil || d1.Outcome != OutcomeAdmit {
		t.Fatalf("first ingest: %+v, %v", d1, err)
	}
	d2, err := p.IngestAt(0.1, "tiny", 2)
	if err != nil {
		t.Fatalf("second ingest: %v", err)
	}
	if d2.Outcome != OutcomeReject || d2.Reason != ReasonRateLimit {
		t.Fatalf("bucket empty but got %+v", d2)
	}
	// After 2 s the bucket refilled.
	d3, err := p.IngestAt(2.2, "tiny", 2)
	if err != nil || d3.Outcome != OutcomeAdmit {
		t.Fatalf("refilled ingest: %+v, %v", d3, err)
	}
}

func TestScaleToZeroAndWake(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "idler", Model: "BERT", Class: "silver", KeepWarmSeconds: 2})

	if _, err := p.IngestAt(0.1, "idler", 3); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// Idle far past the keep-warm window.
	if err := p.AdvanceTo(20); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	u, err := p.Usage("idler")
	if err != nil {
		t.Fatalf("Usage: %v", err)
	}
	if !u.Suspended || u.Suspends != 1 {
		t.Fatalf("tenant not suspended after idle window: %+v", u)
	}
	if ev := p.Events("tenant-suspend"); len(ev) != 1 {
		t.Fatalf("want 1 suspend event, got %d", len(ev))
	} else if ev[0].Requests == 0 {
		t.Fatal("suspend reclaimed no warm containers")
	}
	// A new request wakes the tenant through the cold-start path.
	if _, err := p.IngestAt(21, "idler", 1); err != nil {
		t.Fatalf("wake ingest: %v", err)
	}
	u, err = p.Usage("idler")
	if err != nil {
		t.Fatalf("Usage: %v", err)
	}
	if u.Suspended || u.Resumes != 1 {
		t.Fatalf("tenant not resumed: %+v", u)
	}
	if ev := p.Events("tenant-resume"); len(ev) != 1 || ev[0].Model != "request" {
		t.Fatalf("want 1 resume-by-request event, got %+v", ev)
	}
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Registration pre-warmed the pool, so the initial ingest was warm;
	// the post-suspend wake-up is the one forced cold start.
	if sum.ColdStarts < 1 {
		t.Fatalf("wake-up should pay a fresh cold start: coldStarts=%d", sum.ColdStarts)
	}
}

// scriptedRun drives a deterministic multi-tenant session (bursty gold
// traffic, steady silver, an idle bronze tenant that suspends) and
// returns the plane mid-flight.
func scriptedRun(t *testing.T, opts Options, withSyncs bool) *Plane {
	t.Helper()
	p := mustPlane(t, opts)
	register(t, p, TenantConfig{ID: "gold-burst", Model: "ResNet 18", Class: "gold"})
	register(t, p, TenantConfig{ID: "silver-steady", Model: "BERT", Class: "silver"})
	register(t, p, TenantConfig{ID: "bronze-idle", Model: "MobileNet", Class: "bronze", KeepWarmSeconds: 3})

	if _, err := p.IngestAt(0.2, "bronze-idle", 4); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	for i := 0; i < 60; i++ {
		vt := 0.25 * float64(i)
		n := 3
		if i%10 < 3 {
			n = 12 // burst
		}
		if _, err := p.IngestAt(vt, "gold-burst", n); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		if i%2 == 0 {
			if _, err := p.IngestAt(vt, "silver-steady", 2); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
		// Unlogged intermediate reads must be invisible to replay.
		if withSyncs && i%7 == 0 {
			if _, err := p.UsageAll(); err != nil {
				t.Fatalf("UsageAll: %v", err)
			}
		}
	}
	if err := p.AdvanceTo(16); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	return p
}

func rollups(t *testing.T, p *Plane) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.RenderRollups(&buf); err != nil {
		t.Fatalf("RenderRollups: %v", err)
	}
	return buf.String()
}

// TestReplayMatchesLive is the control plane's determinism contract:
// replaying a recorded ingest log reproduces the live run's admission
// decisions and usage rollups byte-for-byte, even though the live run
// interleaved unlogged advances (usage reads) that the replay never
// saw.
func TestReplayMatchesLive(t *testing.T) {
	live := scriptedRun(t, testOpts(), true)
	if _, err := live.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The log now ends with the drain snapshot, pinning the replay's
	// final advance point.
	log := live.Log()
	want := rollups(t, live)
	if !strings.Contains(want, "tenant=bronze-idle") || !strings.Contains(want, "suspends=1") {
		t.Fatalf("scripted run did not exercise suspend:\n%s", want)
	}
	rp, _, err := Replay(testOpts(), log)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if got := rollups(t, rp); got != want {
		t.Errorf("replay rollups differ from live run:\n--- live ---\n%s--- replay ---\n%s", want, got)
	}
}

func TestRegistryWiring(t *testing.T) {
	reg := obs.NewRegistry()
	opts := testOpts()
	opts.Registry = reg
	p := mustPlane(t, opts)
	register(t, p, TenantConfig{ID: "m", Model: "ResNet 18", Class: "gold"})
	if _, err := p.IngestAt(0.1, "m", 4); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := p.AdvanceTo(5); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if _, err := p.Usage("m"); err != nil {
		t.Fatalf("Usage: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		`proteand_tenant_requests_total{tenant="m",decision="admit"} 4`,
		`proteand_tenant_suspended{tenant="m"} 0`,
		`proteand_tenant_slice_seconds_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	p := mustPlane(t, testOpts())
	register(t, p, TenantConfig{ID: "rt", Model: "MobileNet"})
	if _, err := p.IngestAt(0.5, "rt", 3); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	var buf bytes.Buffer
	if err := p.WriteLog(&buf); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	entries, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(entries) != 2 || entries[0].Op != OpTenant || entries[1].Op != OpIngest || entries[1].N != 3 {
		t.Fatalf("round-tripped log = %+v", entries)
	}
}

func TestMarketPlaneServesAndRollsUp(t *testing.T) {
	opts := testOpts()
	opts.Market = true
	p := mustPlane(t, opts)
	register(t, p, TenantConfig{ID: "acme", Model: "ResNet 18", Class: "gold"})

	quotes, err := p.MarketQuotes()
	if err != nil {
		t.Fatalf("MarketQuotes: %v", err)
	}
	if len(quotes) != 3 {
		t.Fatalf("quotes = %d providers, want 3 (Table 3 catalog)", len(quotes))
	}
	for _, q := range quotes {
		if q.SpotHourly <= 0 || q.SpotHourly > q.OnDemandHourly {
			t.Errorf("%s: spot $%v outside (0, on-demand $%v]", q.Provider, q.SpotHourly, q.OnDemandHourly)
		}
	}

	for i := 0; i < 20; i++ {
		if _, err := p.IngestAt(0.5*float64(i), "acme", 5); err != nil {
			t.Fatalf("IngestAt: %v", err)
		}
	}
	if err := p.AdvanceTo(60); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if sum.Market == nil {
		t.Fatal("market plane drained without a market rollup")
	}
	if sum.Market.TotalDollars <= 0 {
		t.Errorf("TotalDollars = %v, want > 0 (leased workers accrue)", sum.Market.TotalDollars)
	}
	if sum.Market.Stats.Binds < opts.Nodes {
		t.Errorf("Binds = %d, want >= %d (one lease per worker)", sum.Market.Stats.Binds, opts.Nodes)
	}
	if sum.Tenants[0].Completed == 0 {
		t.Error("market plane completed no work")
	}
	// Quotes remain readable after drain (frozen at drain time).
	if _, err := p.MarketQuotes(); err != nil {
		t.Fatalf("MarketQuotes after drain: %v", err)
	}
}

func TestMarketOffPlaneHasNoMarketSurface(t *testing.T) {
	p := mustPlane(t, testOpts())
	quotes, err := p.MarketQuotes()
	if err != nil {
		t.Fatalf("MarketQuotes: %v", err)
	}
	if quotes != nil {
		t.Fatalf("quotes = %v, want nil without Options.Market", quotes)
	}
	sum, err := p.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if sum.Market != nil {
		t.Fatal("market rollup present on a market-off plane")
	}
}
