// Package market is the multi-provider GPU spot marketplace behind
// PROTEAN's procurement layer (ROADMAP item 4). It generalises the
// paper's frozen Table 3 two-row market into a provider catalog with
// finite spot inventory, seeded mean-reverting spot-price processes
// with regime shifts, per-provider revocation profiles, two-phase
// lease provisioning (request → pending → bind) with heartbeat/orphan
// detection, and per-consumer cost tracking with budget alerts.
//
// Determinism contract: every price path is a pure function of the
// simulation seed. Each provider draws from its own child stream
// (`market/price/<name>`), derived without consuming anything from the
// parent, and prices advance only on virtual-time ticks executed in
// root-simulation context — so a market-off run is byte-identical to a
// build without this package, and a market-on run is byte-identical
// across repeats.
//
// The package imports only internal/sim and internal/obs, keeping it
// usable from every layer (vm, cluster, controlplane) without cycles.
package market

import (
	"errors"
	"fmt"
	"math"

	"protean/internal/obs"
	"protean/internal/sim"
)

// Kind distinguishes VM purchase tiers. The values match internal/vm's
// Kind so the fleet can convert without a table.
type Kind int

const (
	// KindOnDemand is a reliable, full-price VM with unbounded supply.
	KindOnDemand Kind = iota + 1
	// KindSpot is a discounted VM with finite inventory, revocable at
	// any time.
	KindSpot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOnDemand:
		return "on-demand"
	case KindSpot:
		return "spot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ProviderConfig describes one provider's inventory, pricing, spot
// price process, and revocation profile.
type ProviderConfig struct {
	// Name labels the provider ("AWS").
	Name string
	// SpotInventory is the finite number of spot instances the provider
	// can lease out simultaneously; on-demand supply is unbounded.
	SpotInventory int
	// OnDemandHourly is the fixed on-demand $/hour.
	OnDemandHourly float64
	// SpotBaseHourly is the long-run anchor of the spot price process
	// and its initial value.
	SpotBaseHourly float64

	// Volatility is the relative per-√hour standard deviation of the
	// spot price walk (0 freezes the price at the anchor).
	Volatility float64
	// Reversion is the mean-reversion strength per hour toward the
	// current regime anchor (default 2).
	Reversion float64
	// RegimeProb is the per-tick probability that an expiring regime is
	// replaced by a shifted one rather than the base anchor.
	RegimeProb float64
	// RegimeLow and RegimeHigh bound the shifted regime's anchor as a
	// multiple of SpotBaseHourly (defaults 0.7 and 1.8).
	RegimeLow, RegimeHigh float64
	// RegimeMeanDuration is the mean regime length in seconds
	// (default 600).
	RegimeMeanDuration float64

	// PRev is the per-check probability a spot lease receives a
	// revocation notice (the fleet draws it on its own stream).
	PRev float64
	// NoticeMin and NoticeMax bound the revocation notice lead time in
	// seconds (defaults 30 and 120).
	NoticeMin, NoticeMax float64
	// StormCoupling is the fraction of another provider's preemption
	// storm that spills onto this provider's spot leases (0: storms on
	// other providers never touch this one).
	StormCoupling float64
}

func (c *ProviderConfig) applyDefaults() {
	if c.SpotInventory < 0 {
		c.SpotInventory = 0
	}
	if c.SpotBaseHourly <= 0 {
		c.SpotBaseHourly = c.OnDemandHourly
	}
	if c.Reversion <= 0 {
		c.Reversion = 2
	}
	if c.RegimeLow <= 0 {
		c.RegimeLow = 0.7
	}
	if c.RegimeHigh < c.RegimeLow {
		c.RegimeHigh = 1.8
	}
	if c.RegimeMeanDuration <= 0 {
		c.RegimeMeanDuration = 600
	}
	if c.NoticeMin <= 0 {
		c.NoticeMin = 30
	}
	if c.NoticeMax < c.NoticeMin {
		c.NoticeMax = 120
	}
}

func (c *ProviderConfig) validate() error {
	if c.Name == "" {
		return errors.New("market: provider without a name")
	}
	if c.OnDemandHourly <= 0 {
		return fmt.Errorf("market: %s: on-demand price %v, want > 0", c.Name, c.OnDemandHourly)
	}
	if c.PRev < 0 || c.PRev > 1 {
		return fmt.Errorf("market: %s: P_rev %v out of [0, 1]", c.Name, c.PRev)
	}
	if c.Volatility < 0 || c.RegimeProb < 0 || c.RegimeProb > 1 {
		return fmt.Errorf("market: %s: bad price-process params (vol %v, regime prob %v)",
			c.Name, c.Volatility, c.RegimeProb)
	}
	return nil
}

// Config tunes the marketplace.
type Config struct {
	// TickInterval is the spot-price evaluation period in virtual
	// seconds (default 15).
	TickInterval float64
	// ProvisionTime is the request → ready lead time (default 25 s).
	// Requests issued at virtual time 0 provision synchronously: the
	// bootstrap fleet exists before the run clock starts, exactly like
	// the single-provider fleet attaching its initial leases at t=0.
	ProvisionTime float64
	// BindTimeout is how long a ready lease waits for its consumer's
	// Bind before it is reclaimed as an orphan (default 30 s).
	BindTimeout float64
	// HeartbeatInterval is the orphan sweeper period (default 60 s).
	HeartbeatInterval float64
	// HeartbeatMisses is how many missed intervals orphan a bound lease
	// (default 3).
	HeartbeatMisses int
	// EWMAAlpha is the smoothing factor of the per-provider spot price
	// forecast exposed to policies (default 0.2).
	EWMAAlpha float64
	// Budget is the total spend ceiling in dollars; crossing 50%, 90%
	// and 100% of it emits budget alerts. 0 disables alerts.
	Budget float64
	// Metrics optionally receives the market's Prometheus series:
	// market_spot_price_hourly{provider}, market_spend_dollars,
	// market_leases_live and market_budget_alerts_total.
	Metrics *obs.Registry
}

func (c *Config) applyDefaults() {
	if c.TickInterval <= 0 {
		c.TickInterval = 15
	}
	if c.ProvisionTime <= 0 {
		c.ProvisionTime = 25
	}
	if c.BindTimeout <= 0 {
		c.BindTimeout = 30
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 60
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.2
	}
}

// provider is one catalog entry's live state.
type provider struct {
	cfg ProviderConfig
	rng *sim.Stream

	spot       float64 // current spot $/hour
	anchor     float64 // current regime anchor $/hour
	regimeLeft float64 // seconds until the regime is re-drawn
	ewma       float64 // forecast
	free       int     // remaining spot inventory

	// price-path summary (deterministic, for reports)
	minSpot, maxSpot, sumSpot float64
	ticks                     int
}

// Market is the marketplace: catalog, price processes, and the
// two-phase lease ledger. All methods must be called in
// root-simulation context (never from a node lane).
type Market struct {
	sim       *sim.Sim
	cfg       Config
	providers []*provider

	leases []*Lease // index = ID-1; entries are never removed

	spend      float64 // settled dollars across all closed billing segments
	alertStage int     // budget thresholds already crossed

	consumers    map[string]int // name → index into consumer slices
	consumerName []string       // first-charge order
	consumerCost []float64

	stats Stats

	ticker  *sim.Ticker
	sweeper *sim.Ticker
	started bool

	priceG  *obs.GaugeVec
	spendG  *obs.Gauge
	liveG   *obs.Gauge
	alertsC *obs.Counter
}

// Stats counts marketplace activity.
type Stats struct {
	// Requests counts lease requests accepted into the pending state.
	Requests int `json:"requests"`
	// Rejected counts requests refused for lack of spot inventory.
	Rejected int `json:"rejected"`
	// Binds counts leases bound by their consumer.
	Binds int `json:"binds"`
	// Orphans counts leases reclaimed after a bind timeout or missed
	// heartbeats.
	Orphans int `json:"orphans"`
	// Releases counts clean lease returns.
	Releases int `json:"releases"`
	// BudgetAlerts counts budget threshold crossings (≤ 3).
	BudgetAlerts int `json:"budgetAlerts"`
}

// New builds a marketplace over the catalog on the simulator's clock.
// Call Start to arm the price ticker and orphan sweeper.
func New(s *sim.Sim, cfg Config, catalog []ProviderConfig) (*Market, error) {
	if s == nil {
		return nil, errors.New("market: nil sim")
	}
	if len(catalog) == 0 {
		return nil, errors.New("market: empty provider catalog")
	}
	cfg.applyDefaults()
	m := &Market{
		sim:       s,
		cfg:       cfg,
		consumers: make(map[string]int),
	}
	for i := range catalog {
		pc := catalog[i]
		if err := pc.validate(); err != nil {
			return nil, err
		}
		pc.applyDefaults()
		p := &provider{
			cfg:     pc,
			rng:     s.Rand().Child("market/price/" + pc.Name),
			spot:    pc.SpotBaseHourly,
			anchor:  pc.SpotBaseHourly,
			ewma:    pc.SpotBaseHourly,
			free:    pc.SpotInventory,
			minSpot: pc.SpotBaseHourly,
			maxSpot: pc.SpotBaseHourly,
		}
		m.providers = append(m.providers, p)
	}
	if reg := cfg.Metrics; reg != nil {
		m.priceG = reg.GaugeVec("market_spot_price_hourly",
			"Current spot price per provider in $/hour.", "provider")
		m.spendG = reg.Gauge("market_spend_dollars",
			"Total dollars settled across all lease billing segments.")
		m.liveG = reg.Gauge("market_leases_live",
			"Leases currently pending, ready or bound.")
		m.alertsC = reg.Counter("market_budget_alerts_total",
			"Budget threshold crossings (50%/90%/100%).")
		for _, p := range m.providers {
			m.priceG.With(p.cfg.Name).Set(p.spot)
		}
	}
	return m, nil
}

// Start arms the price ticker and the orphan sweeper.
func (m *Market) Start() error {
	if m.started {
		return errors.New("market: already started")
	}
	m.started = true
	tk, err := m.sim.Every(m.cfg.TickInterval, m.tick)
	if err != nil {
		return fmt.Errorf("market: start price ticker: %w", err)
	}
	m.ticker = tk
	sw, err := m.sim.Every(m.cfg.HeartbeatInterval, m.sweepOrphans)
	if err != nil {
		return fmt.Errorf("market: start orphan sweeper: %w", err)
	}
	m.sweeper = sw
	return nil
}

// Stop halts the tickers. Open leases stay billable until Released.
func (m *Market) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
	if m.sweeper != nil {
		m.sweeper.Stop()
	}
}

// Providers returns the catalog size.
func (m *Market) Providers() int { return len(m.providers) }

// ProviderConfig returns provider i's configuration.
func (m *Market) ProviderConfig(i int) ProviderConfig { return m.providers[i].cfg }

// SpotPrice returns provider i's current spot $/hour.
func (m *Market) SpotPrice(i int) float64 { return m.providers[i].spot }

// tick advances every provider's spot price process by one interval,
// in catalog order. Active leases of a provider are checkpointed at
// the old price before the new one takes effect, so the cost meter is
// an exact piecewise integral across price changes.
func (m *Market) tick() {
	now := m.sim.Now()
	dt := m.cfg.TickInterval / 3600 // hours
	for i, p := range m.providers {
		c := &p.cfg
		// Regime shifts: when the current regime expires, either revert
		// to the base anchor or (with RegimeProb) shift to a scaled one.
		p.regimeLeft -= m.cfg.TickInterval
		if p.regimeLeft <= 0 {
			if p.rng.Float64() < c.RegimeProb {
				p.anchor = c.SpotBaseHourly * (c.RegimeLow + p.rng.Float64()*(c.RegimeHigh-c.RegimeLow))
			} else {
				p.anchor = c.SpotBaseHourly
			}
			p.regimeLeft = c.RegimeMeanDuration * (0.5 + p.rng.Float64())
		}
		// Mean-reverting multiplicative walk around the regime anchor.
		next := p.spot +
			c.Reversion*(p.anchor-p.spot)*dt +
			c.Volatility*p.spot*math.Sqrt(dt)*p.rng.NormFloat64()
		// Spot never exceeds on-demand (nobody would buy) and never
		// collapses below 5% of base (providers floor their auctions).
		if next > c.OnDemandHourly {
			next = c.OnDemandHourly
		}
		if floor := 0.05 * c.SpotBaseHourly; next < floor {
			next = floor
		}
		// Settle every active lease segment at the outgoing price.
		m.checkpointProvider(i, now)
		p.spot = next
		p.ewma += m.cfg.EWMAAlpha * (p.spot - p.ewma)
		p.ticks++
		p.sumSpot += p.spot
		if p.spot < p.minSpot {
			p.minSpot = p.spot
		}
		if p.spot > p.maxSpot {
			p.maxSpot = p.spot
		}
		if m.priceG != nil {
			m.priceG.With(c.Name).Set(p.spot)
		}
		if tr := m.sim.Tracer(); tr.Enabled() {
			ev := obs.At(now, obs.KindPriceTick)
			ev.Node = i
			ev.Detail = c.Name
			ev.Value = p.spot
			tr.Emit(ev)
		}
	}
}

// checkpointProvider closes the open billing segment of every active
// lease on provider i at the current price.
func (m *Market) checkpointProvider(i int, now float64) {
	for _, l := range m.leases {
		if l.Provider != i || !l.billing() {
			continue
		}
		m.settle(l, now)
	}
}

// rate returns the lease's current $/hour.
func (m *Market) rate(l *Lease) float64 {
	p := m.providers[l.Provider]
	if l.Kind == KindSpot {
		return p.spot
	}
	return p.cfg.OnDemandHourly
}

// settle closes the lease's open billing segment: dollars accrue to
// the lease, the consumer's ledger, and the market total, and budget
// alerts fire on threshold crossings.
func (m *Market) settle(l *Lease, now float64) {
	d := (now - l.since) / 3600 * m.rate(l)
	l.since = now
	if d <= 0 {
		return
	}
	l.accrued += d
	m.charge(l.Consumer, d)
}

// charge records dollars against a consumer's ledger and the market
// total, firing budget alerts as thresholds are crossed.
func (m *Market) charge(consumer string, dollars float64) {
	idx, ok := m.consumers[consumer]
	if !ok {
		idx = len(m.consumerName)
		m.consumers[consumer] = idx
		m.consumerName = append(m.consumerName, consumer)
		m.consumerCost = append(m.consumerCost, 0)
	}
	m.consumerCost[idx] += dollars
	m.spend += dollars
	if m.spendG != nil {
		m.spendG.Set(m.spend)
	}
	m.checkBudget(consumer)
}

// Spend records externally metered spending for a consumer (e.g. the
// control plane billing tenants at market rates), feeding the same
// ledger and budget alerts as lease billing.
func (m *Market) Spend(consumer string, dollars float64) {
	if dollars <= 0 {
		return
	}
	m.charge(consumer, dollars)
}

// budgetStages are the alert thresholds as fractions of Config.Budget.
var budgetStages = [...]float64{0.5, 0.9, 1.0}

func (m *Market) checkBudget(consumer string) {
	if m.cfg.Budget <= 0 {
		return
	}
	for m.alertStage < len(budgetStages) && m.spend >= budgetStages[m.alertStage]*m.cfg.Budget {
		stage := budgetStages[m.alertStage]
		m.alertStage++
		m.stats.BudgetAlerts++
		if m.alertsC != nil {
			m.alertsC.Inc()
		}
		if tr := m.sim.Tracer(); tr.Enabled() {
			ev := obs.At(m.sim.Now(), obs.KindBudgetAlert)
			ev.Detail = fmt.Sprintf("%.0f%%", stage*100)
			ev.Model = consumer
			ev.Value = m.spend
			tr.Emit(ev)
		}
	}
}

// BudgetExhausted reports whether the spend ceiling has been crossed.
func (m *Market) BudgetExhausted() bool {
	return m.cfg.Budget > 0 && m.spend >= m.cfg.Budget
}

// TotalDollars returns all settled spending plus the open segment of
// every active lease, valued at current prices.
func (m *Market) TotalDollars() float64 {
	total := m.spend
	now := m.sim.Now()
	for _, l := range m.leases {
		if l.billing() {
			total += (now - l.since) / 3600 * m.rate(l)
		}
	}
	return total
}

// CheapestOnDemandHourly returns the lowest on-demand price in the
// catalog — the rational all-on-demand buyer's rate, used as the
// cost-normalisation baseline.
func (m *Market) CheapestOnDemandHourly() float64 {
	best := m.providers[0].cfg.OnDemandHourly
	for _, p := range m.providers[1:] {
		if p.cfg.OnDemandHourly < best {
			best = p.cfg.OnDemandHourly
		}
	}
	return best
}

// CheapestSpotHourly returns the lowest current spot price.
func (m *Market) CheapestSpotHourly() float64 {
	best := m.providers[0].spot
	for _, p := range m.providers[1:] {
		if p.spot < best {
			best = p.spot
		}
	}
	return best
}

// ConsumerCost is one consumer's settled spending.
type ConsumerCost struct {
	Consumer string  `json:"consumer"`
	Dollars  float64 `json:"dollars"`
}

// ConsumerCosts returns settled per-consumer spending in first-charge
// order. Open lease segments are not included; call after Release or
// add TotalDollars' open remainder for live views.
func (m *Market) ConsumerCosts() []ConsumerCost {
	out := make([]ConsumerCost, len(m.consumerName))
	for i, name := range m.consumerName {
		out[i] = ConsumerCost{Consumer: name, Dollars: m.consumerCost[i]}
	}
	return out
}

// Stats returns marketplace activity counters.
func (m *Market) Stats() Stats { return m.stats }

// PriceStats is a provider's deterministic price-path summary.
type PriceStats struct {
	Provider string  `json:"provider"`
	Min      float64 `json:"min"`
	Mean     float64 `json:"mean"`
	Max      float64 `json:"max"`
	Ticks    int     `json:"ticks"`
}

// PriceStatsAll summarises every provider's spot price path so far.
func (m *Market) PriceStatsAll() []PriceStats {
	out := make([]PriceStats, len(m.providers))
	for i, p := range m.providers {
		mean := p.cfg.SpotBaseHourly
		if p.ticks > 0 {
			mean = p.sumSpot / float64(p.ticks)
		}
		out[i] = PriceStats{Provider: p.cfg.Name, Min: p.minSpot, Mean: mean, Max: p.maxSpot, Ticks: p.ticks}
	}
	return out
}

// Summary is a deterministic end-of-run digest of marketplace
// activity, carried on experiment results.
type Summary struct {
	// Stats counts lease traffic.
	Stats Stats `json:"stats"`
	// TotalDollars is all spending, settled plus open segments.
	TotalDollars float64 `json:"totalDollars"`
	// Prices summarises every provider's spot price path.
	Prices []PriceStats `json:"prices"`
	// Consumers is per-consumer settled spending in first-charge order.
	Consumers []ConsumerCost `json:"consumers"`
}

// Summary digests the marketplace state (call after the run drains).
func (m *Market) Summary() Summary {
	return Summary{
		Stats:        m.stats,
		TotalDollars: m.TotalDollars(),
		Prices:       m.PriceStatsAll(),
		Consumers:    m.ConsumerCosts(),
	}
}

// Quote is one provider's current offer, the GET /v1/market/prices
// payload.
type Quote struct {
	Provider       string  `json:"provider"`
	OnDemandHourly float64 `json:"onDemandHourly"`
	SpotHourly     float64 `json:"spotHourly"`
	SpotForecast   float64 `json:"spotForecast"`
	SpotFree       int     `json:"spotFree"`
	PRev           float64 `json:"pRev"`
}

// Quotes returns every provider's current offer in catalog order.
func (m *Market) Quotes() []Quote {
	out := make([]Quote, len(m.providers))
	for i, p := range m.providers {
		out[i] = Quote{
			Provider:       p.cfg.Name,
			OnDemandHourly: p.cfg.OnDemandHourly,
			SpotHourly:     p.spot,
			SpotForecast:   p.ewma,
			SpotFree:       p.free,
			PRev:           p.cfg.PRev,
		}
	}
	return out
}
