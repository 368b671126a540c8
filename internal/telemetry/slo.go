package telemetry

import (
	"sync"
	"time"
)

// The two burn-rate horizons and their alert thresholds, the
// multiwindow pairing of the SRE workbook. The fast window catches sharp
// regressions: burning at 14.4x exhausts a 30-day error budget in ~2
// days (page now). The slow window catches sustained slow burns: 6x
// exhausts it in ~5 days (ticket).
const (
	fastBurnWindow    = 5 * time.Minute
	slowBurnWindow    = time.Hour
	fastBurnThreshold = 14.4
	slowBurnThreshold = 6.0
)

// SLOConfig sizes an SLO tracker. Only Name and Objective are required.
type SLOConfig struct {
	// Name prefixes the registered metrics, e.g. "server.slo.latency"
	// registers "server.slo.latency.good", ".bad", ".burn_fast",
	// ".burn_slow", ".breach_fast" and ".breach_slow".
	Name string
	// Objective is the target good fraction in (0, 1), e.g. 0.99 means
	// at most 1% of observations may be bad. The error budget is
	// 1 - Objective; burn rate is the windowed bad fraction divided by
	// that budget (1.0 = exactly on budget).
	Objective float64
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// SLO tracks one service-level objective: cumulative good/bad counters
// plus fast- and slow-window burn rates computed over time-bucketed
// rings, all exposed through a Registry so /metrics serves them. Record
// is mutex-guarded — it sits on the per-HTTP-request path, not a solver
// hot loop — and updates the burn gauges synchronously so a scrape
// always sees the rate as of the last observation.
type SLO struct {
	mu   sync.Mutex
	cfg  SLOConfig
	fast *burnWindow
	slow *burnWindow

	good       *Counter
	bad        *Counter
	burnFast   *FloatGauge
	burnSlow   *FloatGauge
	breachFast *Counter
	breachSlow *Counter
	overFast   bool // above threshold at last Record (breach = upward crossing)
	overSlow   bool
	budget     float64
	now        func() time.Time
}

// burnWindowBuckets is the ring resolution of each burn window: the
// window is covered by this many rotating buckets, so the reported rate
// trails a full bucket's width at worst.
const burnWindowBuckets = 30

// NewSLO registers the tracker's metric family in r and returns the
// tracker. A nil registry returns a tracker whose metrics are detached
// (still functional, never scraped) so callers need not guard.
func NewSLO(r *Registry, cfg SLOConfig) *SLO {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.99
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if r == nil {
		r = New()
	}
	s := &SLO{
		cfg:        cfg,
		fast:       newBurnWindow(fastBurnWindow, cfg.Now()),
		slow:       newBurnWindow(slowBurnWindow, cfg.Now()),
		good:       r.Counter(cfg.Name + ".good"),
		bad:        r.Counter(cfg.Name + ".bad"),
		burnFast:   r.FloatGauge(cfg.Name + ".burn_fast"),
		burnSlow:   r.FloatGauge(cfg.Name + ".burn_slow"),
		breachFast: r.Counter(cfg.Name + ".breach_fast"),
		breachSlow: r.Counter(cfg.Name + ".breach_slow"),
		budget:     1 - cfg.Objective,
		now:        cfg.Now,
	}
	return s
}

// Record counts one observation against the objective and refreshes the
// burn gauges. An upward crossing of a burn threshold increments the
// matching breach counter (once per excursion, not per request).
func (s *SLO) Record(good bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if good {
		s.good.Add(1)
	} else {
		s.bad.Add(1)
	}
	now := s.now()
	s.fast.record(good, now)
	s.slow.record(good, now)
	fb := s.fast.badRatio() / s.budget
	sb := s.slow.badRatio() / s.budget
	s.burnFast.Set(fb)
	s.burnSlow.Set(sb)
	if over := fb > fastBurnThreshold; over != s.overFast {
		if over {
			s.breachFast.Add(1)
		}
		s.overFast = over
	}
	if over := sb > slowBurnThreshold; over != s.overSlow {
		if over {
			s.breachSlow.Add(1)
		}
		s.overSlow = over
	}
}

// FastBurn returns the fast-window burn rate as of the last Record.
func (s *SLO) FastBurn() float64 { return s.burnFast.Value() }

// SlowBurn returns the slow-window burn rate as of the last Record.
func (s *SLO) SlowBurn() float64 { return s.burnSlow.Value() }

// burnWindow is a rotating ring of good/bad buckets covering one burn
// horizon. Buckets older than the window are zeroed as the head
// advances, so ratios always cover at most the window.
type burnWindow struct {
	bucketDur time.Duration
	good      []int64
	bad       []int64
	head      int
	headStart time.Time
}

func newBurnWindow(window time.Duration, now time.Time) *burnWindow {
	return &burnWindow{
		bucketDur: window / burnWindowBuckets,
		good:      make([]int64, burnWindowBuckets),
		bad:       make([]int64, burnWindowBuckets),
		headStart: now,
	}
}

// advance rotates the head forward to cover now, zeroing buckets that
// fell out of the window.
func (w *burnWindow) advance(now time.Time) {
	steps := int(now.Sub(w.headStart) / w.bucketDur)
	if steps <= 0 {
		return
	}
	if steps > len(w.good) {
		steps = len(w.good)
	}
	for i := 0; i < steps; i++ {
		w.head = (w.head + 1) % len(w.good)
		w.good[w.head] = 0
		w.bad[w.head] = 0
	}
	w.headStart = w.headStart.Add(time.Duration(steps) * w.bucketDur)
	// A gap longer than the whole window leaves headStart stale; snap it.
	if now.Sub(w.headStart) >= w.bucketDur {
		w.headStart = now
	}
}

func (w *burnWindow) record(good bool, now time.Time) {
	w.advance(now)
	if good {
		w.good[w.head]++
	} else {
		w.bad[w.head]++
	}
}

// badRatio returns the window's bad fraction (0 when empty).
func (w *burnWindow) badRatio() float64 {
	var good, bad int64
	for i := range w.good {
		good += w.good[i]
		bad += w.bad[i]
	}
	if good+bad == 0 {
		return 0
	}
	return float64(bad) / float64(good+bad)
}
