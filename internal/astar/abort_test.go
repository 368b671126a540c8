package astar

import (
	"context"
	"slices"
	"testing"
	"time"

	"cosched/internal/abort"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/telemetry"
)

// abortModes is the search-mode matrix every abort reason is exercised
// against: plain OA*, trimmed HA*, and the beam search.
func abortModes() map[string]Options {
	return map[string]Options{
		"OA*":  {H: HNone},
		"HA*":  {H: HPerProc, KPerLevel: 3, UseIncumbent: true},
		"beam": {H: HPerProcAvg, HWeight: 1.2, KPerLevel: 3, BeamWidth: 4},
	}
}

// requireDegraded asserts the degraded-result contract: no error, the
// abort flagged with the wanted reason, a valid partition, and the
// admission identity intact on the aborted counters.
func requireDegraded(t *testing.T, g *graph.Graph, res *Result, err error, want abort.Reason) {
	t.Helper()
	if err != nil {
		t.Fatalf("aborted search errored instead of degrading: %v", err)
	}
	if !res.Stats.Degraded {
		t.Fatalf("aborted search not flagged degraded: %+v", res.Stats)
	}
	if res.Stats.Aborted != want {
		t.Fatalf("abort reason = %v; want %v", res.Stats.Aborted, want)
	}
	if err := g.Cost.ValidatePartition(res.Groups); err != nil {
		t.Errorf("degraded schedule invalid: %v", err)
	}
	st := res.Stats
	if got := st.Expanded + st.Dismissed + st.BeamTrimmed + st.InFrontier; got != st.Generated {
		t.Errorf("aborted admission identity broken: generated %d != expanded %d + dismissed %d + trimmed %d + frontier %d",
			st.Generated, st.Expanded, st.Dismissed, st.BeamTrimmed, st.InFrontier)
	}
}

func TestAbortExpiredContext(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, opts := range abortModes() {
		t.Run(name, func(t *testing.T) {
			opts.Ctx = ctx
			s, err := NewSolver(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s.levels != nil {
				t.Error("level table built past an expired deadline")
			}
			startAt := time.Now()
			res, err := s.Solve()
			requireDegraded(t, g, res, err, abort.Deadline)
			if e := time.Since(startAt); e > time.Second {
				t.Errorf("expired-context abort took %v", e)
			}
			if res.Stats.VisitedPaths != 0 {
				t.Errorf("expired context still popped %d elements", res.Stats.VisitedPaths)
			}
		})
	}
	// Strategies 1 and 2 read level statistics prepare builds, polling
	// the context between levels: past the deadline HA*, which has no
	// level table, enumerates no level and the search's first poll
	// aborts.
	for _, h := range []HStrategy{HStrategy1, HStrategy2} {
		t.Run("levels-"+h.String(), func(t *testing.T) {
			s, err := NewSolver(g, Options{H: h, KPerLevel: 3, Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			if s.levelOrder != nil || slices.ContainsFunc(s.levelSums, func(w []float64) bool { return w != nil }) {
				t.Error("level statistics built past an expired deadline")
			}
			res, err := s.Solve()
			requireDegraded(t, g, res, err, abort.Deadline)
		})
	}
}

func TestAbortCancelledContext(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, opts := range abortModes() {
		t.Run(name, func(t *testing.T) {
			opts.Ctx = ctx
			s, err := NewSolver(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve()
			requireDegraded(t, g, res, err, abort.Cancel)
		})
	}
}

func TestAbortExpansionCap(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	for name, opts := range abortModes() {
		t.Run(name, func(t *testing.T) {
			opts.MaxExpansions = 2
			s, err := NewSolver(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve()
			requireDegraded(t, g, res, err, abort.Expansions)
			if res.Stats.VisitedPaths != 2 {
				t.Errorf("search popped %d elements, cap was 2", res.Stats.VisitedPaths)
			}
		})
	}
}

func TestAbortMemoryBudget(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	for name, opts := range abortModes() {
		t.Run(name, func(t *testing.T) {
			opts.MemoryBudget = 1 // breached by the root element alone
			s, err := NewSolver(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve()
			requireDegraded(t, g, res, err, abort.Memory)
		})
	}
}

// TestAbortPreservesIncumbent pins the satellite fix: a search that
// already admitted a complete schedule must hand that incumbent back on
// abort, not a from-scratch greedy fallback. MaxExpansions large enough
// to complete some paths but too small to drain the queue forces the
// situation deterministically.
func TestAbortPreservesIncumbent(t *testing.T) {
	g := syntheticGraph(t, 12, 4, 3, degradation.ModePC)
	full, err := NewSolver(g, Options{H: HNone})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := full.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Find a cap at which the aborted search holds a complete incumbent.
	for cap := int64(50); cap <= 2000; cap *= 2 {
		s, err := NewSolver(g, Options{H: HNone, MaxExpansions: cap})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Degraded {
			return // cap exceeded the full search; nothing left to probe
		}
		requireDegraded(t, g, res, err, abort.Expansions)
		if res.Cost < opt.Cost-eps {
			t.Fatalf("degraded cost %v beats the optimum %v", res.Cost, opt.Cost)
		}
	}
}

// TestAbortEmitsTrace checks the degraded trace shape end to end: one
// abort event carrying the reason, a stats event, and a solution event
// repeating the reason, plus the astar.aborts.* counter.
func TestAbortEmitsTrace(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	reg := telemetry.New()
	rec := telemetry.NewFlightRecorder(256)
	tr := NewEventTracer(telemetry.NewEmitter(rec))
	s, err := NewSolver(g, Options{H: HNone, MaxExpansions: 2, Tracer: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	requireDegraded(t, g, res, err, abort.Expansions)
	var abortEvs, solutions int
	for _, ev := range rec.Events() {
		switch ev.Ev {
		case "abort":
			abortEvs++
			if ev.Reason != "expansions" {
				t.Errorf("abort event reason %q; want expansions", ev.Reason)
			}
		case "solution":
			solutions++
			if ev.Reason != "expansions" {
				t.Errorf("solution event reason %q; want expansions", ev.Reason)
			}
		}
	}
	if abortEvs != 1 || solutions != 1 {
		t.Errorf("trace carries %d abort and %d solution events; want 1 and 1", abortEvs, solutions)
	}
	if got := reg.Counter("astar.aborts.expansions").Value(); got != 1 {
		t.Errorf("astar.aborts.expansions = %d; want 1", got)
	}
}

// TestPollAbortAllocationFree pins the cost of the per-pop abort poll:
// with a live context deadline, an expansion cap and a memory budget all
// armed but untriggered, polling — memory sample included — on top of
// the dismissed-child work must keep the hot path at 0 allocations: the
// anytime machinery may not undo the pooled-search guarantee.
func TestPollAbortAllocationFree(t *testing.T) {
	sv, root, node := hotPathSolver(t, 120, 4, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	sv.opts.Ctx = ctx
	sv.opts.MaxExpansions = 1 << 40
	sv.opts.MemoryBudget = 1 << 40
	done := sv.abortDone()
	if done == nil {
		t.Fatal("live context produced no done channel")
	}
	var stats Stats
	primeDismissal(sv, sv.table, root, node)
	inc := sv.newIncumbent()
	allocs := testing.AllocsPerRun(200, func() {
		// VisitedPaths stays 0, so every poll takes a memory sample.
		if reason := sv.pollAbort(done, stats.VisitedPaths, sv.memSample(stats.VisitedPaths, 64)); reason != abort.None {
			t.Fatalf("armed-but-untriggered poll aborted: %v", reason)
		}
		c, _ := dismissChild(t, sv, sv.table, inc, root, node, &stats)
		sv.recycle(c)
	})
	if allocs > 0 {
		t.Fatalf("abort poll on the hot path costs %.1f allocs; want 0", allocs)
	}
}
