package telemetry

import (
	"math"
	"testing"
	"time"
)

// TestQuantileFromCountsEdges pins the edge cases the autoscaler can
// feed the function after differencing two histogram snapshots: an
// empty window, a single occupied bucket, all-zero counts, and the
// quantile extremes q=0 and q=1.
func TestQuantileFromCountsEdges(t *testing.T) {
	bounds := []float64{1, 10, 100}

	t.Run("empty-window", func(t *testing.T) {
		if got := QuantileFromCounts(bounds, nil, 0.9); got != 0 {
			t.Errorf("nil counts: got %v, want 0", got)
		}
		if got := QuantileFromCounts(nil, nil, 0.9); got != 0 {
			t.Errorf("nil bounds and counts: got %v, want 0", got)
		}
	})

	t.Run("all-zero-counts", func(t *testing.T) {
		if got := QuantileFromCounts(bounds, []int64{0, 0, 0, 0}, 0.5); got != 0 {
			t.Errorf("all-zero counts: got %v, want 0", got)
		}
	})

	t.Run("single-bucket", func(t *testing.T) {
		// Everything in the 10ms bucket: every quantile reports its
		// upper bound.
		counts := []int64{0, 7, 0, 0}
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			if got := QuantileFromCounts(bounds, counts, q); got != 10 {
				t.Errorf("q=%v: got %v, want 10", q, got)
			}
		}
	})

	t.Run("single-bucket-inf", func(t *testing.T) {
		counts := []int64{0, 0, 0, 3}
		if got := QuantileFromCounts(bounds, counts, 0.5); !math.IsInf(got, 1) {
			t.Errorf("+Inf bucket: got %v, want +Inf", got)
		}
	})

	t.Run("q-zero", func(t *testing.T) {
		// q=0 still needs at least one observation's bucket: the target
		// count is clamped to 1, so it reports the lowest occupied bound.
		counts := []int64{0, 2, 3, 0}
		if got := QuantileFromCounts(bounds, counts, 0); got != 10 {
			t.Errorf("q=0: got %v, want 10 (lowest occupied bucket)", got)
		}
	})

	t.Run("q-one", func(t *testing.T) {
		counts := []int64{2, 2, 2, 0}
		if got := QuantileFromCounts(bounds, counts, 1); got != 100 {
			t.Errorf("q=1: got %v, want 100 (highest occupied bucket)", got)
		}
		withInf := []int64{2, 2, 2, 1}
		if got := QuantileFromCounts(bounds, withInf, 1); !math.IsInf(got, 1) {
			t.Errorf("q=1 with +Inf tail: got %v, want +Inf", got)
		}
	})
}

// TestSLOBurnRates drives an SLO through a controlled clock and checks
// the burn-rate gauges and breach counters.
func TestSLOBurnRates(t *testing.T) {
	now := time.Unix(0, 0)
	reg := New()
	slo := NewSLO(reg, SLOConfig{
		Name:      "test.slo",
		Objective: 0.99, // 1% budget
		Now:       func() time.Time { return now },
	})

	// 100 good observations: zero burn, no breaches.
	for i := 0; i < 100; i++ {
		slo.Record(true)
	}
	if got := slo.FastBurn(); got != 0 {
		t.Errorf("all-good fast burn = %v, want 0", got)
	}

	// 100 more, half bad: windowed bad ratio 50/200 = 0.25, burn
	// 0.25/0.01 = 25 — over both thresholds, breach counters fire once.
	for i := 0; i < 100; i++ {
		slo.Record(i%2 == 0)
	}
	if got := slo.FastBurn(); math.Abs(got-25) > 1e-9 {
		t.Errorf("fast burn = %v, want 25", got)
	}
	snap := reg.Snapshot()
	if got := snap["test.slo.breach_fast"]; got != int64(1) {
		t.Errorf("breach_fast = %v, want 1 (one upward crossing)", got)
	}
	if got := snap["test.slo.breach_slow"]; got != int64(1) {
		t.Errorf("breach_slow = %v, want 1", got)
	}
	if got := snap["test.slo.good"]; got != int64(150) {
		t.Errorf("good = %v, want 150", got)
	}
	if got := snap["test.slo.bad"]; got != int64(50) {
		t.Errorf("bad = %v, want 50", got)
	}

	// Advance past the 5m fast window: the bad observations
	// age out and the fast burn recovers while the slow window (1h)
	// still remembers them.
	now = now.Add(6 * time.Minute)
	slo.Record(true)
	if got := slo.FastBurn(); got != 0 {
		t.Errorf("fast burn after window expiry = %v, want 0", got)
	}
	if got := slo.SlowBurn(); got == 0 {
		t.Error("slow burn forgot the bad events inside its window")
	}

	// Recovery then a second excursion increments the breach counter
	// again (once per excursion, not per bad request).
	for i := 0; i < 400; i++ {
		slo.Record(false)
	}
	snap = reg.Snapshot()
	if got := snap["test.slo.breach_fast"]; got != int64(2) {
		t.Errorf("breach_fast after second excursion = %v, want 2", got)
	}
}

// TestSLODetachedRegistry checks a nil registry yields a functional
// tracker instead of a panic.
func TestSLODetachedRegistry(t *testing.T) {
	slo := NewSLO(nil, SLOConfig{Name: "detached"})
	slo.Record(true)
	slo.Record(false)
	if got := slo.FastBurn(); got <= 0 {
		t.Errorf("detached tracker burn = %v, want > 0", got)
	}
}
