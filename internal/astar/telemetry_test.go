package astar

import (
	"bytes"
	"math"
	"testing"
	"time"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/telemetry"
	"cosched/internal/workload"
)

// pairwiseGraphTB builds a mid-size additive-pairwise instance (the
// regime where the hot path is fully allocation-free).
func pairwiseGraphTB(tb testing.TB, n, u int, seed int64) *graph.Graph {
	tb.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := workload.SyntheticPairwiseInstance(n, &m, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return graph.New(in.Cost(degradation.ModePC), in.Patterns)
}

// TestAdmissionInvariant pins the Stats accounting contract across every
// search mode: each admitted sub-path is eventually expanded, superseded,
// beam-trimmed, or still in the frontier when the solve returns —
//
//	Generated == Expanded + Dismissed + BeamTrimmed + InFrontier
//
// — and VisitedPaths exceeds Expanded by exactly the root pop. When a
// Metrics registry is attached, its counters must agree with the Stats
// the solve returned (the registry is flushed from the same fields).
func TestAdmissionInvariant(t *testing.T) {
	for _, cfg := range []struct {
		name string
		g    func(t *testing.T) *graph.Graph
		opts Options
	}{
		{"OA*-pairwise", func(t *testing.T) *graph.Graph {
			return pairwiseGraphTB(t, 16, 4, 11)
		}, Options{H: HPerProc, UseIncumbent: true}},
		{"OA*-memoized-oracle", func(t *testing.T) *graph.Graph {
			return syntheticGraphTB(t, 12, 2, 5, degradation.ModePC)
		}, Options{H: HPerProc, Condense: true, UseIncumbent: true}},
		{"HA*-trimmed", func(t *testing.T) *graph.Graph {
			return pairwiseGraphTB(t, 24, 4, 11)
		}, Options{H: HPerProc, KPerLevel: 6, UseIncumbent: true}},
		{"beam", func(t *testing.T) *graph.Graph {
			return pairwiseGraphTB(t, 48, 4, 11)
		}, Options{H: HPerProcAvg, HWeight: 1.2, KPerLevel: 12, BeamWidth: 4}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			reg := telemetry.New()
			opts := cfg.opts
			opts.Metrics = reg
			res := solveWith(t, cfg.g(t), opts)
			st := res.Stats

			if got := st.Expanded + st.Dismissed + st.BeamTrimmed + st.InFrontier; got != st.Generated {
				t.Errorf("admission invariant broken: Generated=%d but Expanded=%d + Dismissed=%d + BeamTrimmed=%d + InFrontier=%d = %d",
					st.Generated, st.Expanded, st.Dismissed, st.BeamTrimmed, st.InFrontier, got)
			}
			if st.VisitedPaths != st.Expanded+1 {
				t.Errorf("VisitedPaths=%d should exceed Expanded=%d by exactly the root pop", st.VisitedPaths, st.Expanded)
			}

			for name, want := range map[string]int64{
				"astar.solves":           1,
				"astar.pops":             st.VisitedPaths,
				"astar.expanded":         st.Expanded,
				"astar.generated":        st.Generated,
				"astar.dismissed.worse":  st.DismissedWorse,
				"astar.dismissed.stale":  st.Dismissed,
				"astar.dismissed.pruned": st.Pruned,
				"astar.condensed":        st.Condensed,
				"astar.beam.trimmed":     st.BeamTrimmed,
				"astar.pool.allocated":   st.ElemAllocated,
				"astar.pool.reused":      st.ElemReused,
			} {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("registry %s = %d, want %d (Stats: %+v)", name, got, want, st)
				}
			}
			if got := reg.Gauge("astar.frontier").Value(); got != st.InFrontier {
				t.Errorf("registry astar.frontier = %d, want InFrontier %d", got, st.InFrontier)
			}
			if reg.Counter("astar.solve_ns").Value() <= 0 {
				t.Error("astar.solve_ns not recorded")
			}
		})
	}
}

// TestJSONLTraceRoundTrip runs a full OA* solve traced into JSONL
// and decodes the stream back: the event sequence must open with
// solve_start, close with the solution, and carry one dismiss event per
// dismissal the Stats counted.
func TestJSONLTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewEventTracer(telemetry.NewEmitter(telemetry.NewEventWriter(&buf)))
	g := pairwiseGraphTB(t, 16, 4, 7)
	res := solveWith(t, g, Options{H: HPerProc, UseIncumbent: true, Tracer: tr})

	events, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("trace too short: %d events", len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.Ev != "solve_start" || first.N != 16 || first.U != 4 || first.Method != "OA*" {
		t.Errorf("bad solve_start event: %+v", first)
	}
	if first.SolveID == 0 {
		t.Error("trace events carry no solve_id")
	}
	for i, ev := range events {
		if ev.SolveID != first.SolveID {
			t.Fatalf("event %d solve_id = %d, want %d (one solve, one id)", i, ev.SolveID, first.SolveID)
		}
	}
	if last.Ev != "solution" || math.Abs(last.Cost-res.Cost) > 1e-12 {
		t.Errorf("bad solution event: %+v (want cost %v)", last, res.Cost)
	}
	var groupsLen int
	for _, grp := range last.Groups {
		groupsLen += len(grp)
	}
	if groupsLen != 16 {
		t.Errorf("solution groups cover %d processes, want 16", groupsLen)
	}

	var expands, dismissals int64
	var statsEv *telemetry.Event
	reasons := map[string]int64{}
	for i, ev := range events[1 : len(events)-1] {
		switch ev.Ev {
		case "expand":
			expands++
			if ev.Pop <= 0 {
				t.Fatalf("expand event without pop index: %+v", ev)
			}
		case "dismiss":
			dismissals++
			reasons[ev.Reason]++
		case "progress":
			// Rate-limited; absent on fast solves.
		case "stats":
			statsEv = &events[1+i]
		default:
			t.Fatalf("unexpected event type %q", ev.Ev)
		}
	}
	if statsEv == nil {
		t.Fatal("trace missing the final stats event")
	}
	if statsEv.Generated != res.Stats.Generated || statsEv.Expanded != res.Stats.Expanded ||
		statsEv.InFrontier != res.Stats.InFrontier {
		t.Errorf("stats event %+v disagrees with Stats %+v", statsEv, res.Stats)
	}
	if expands != res.Stats.VisitedPaths {
		t.Errorf("trace has %d expand events, Stats counted %d pops", expands, res.Stats.VisitedPaths)
	}
	st := res.Stats
	if want := st.Dismissed + st.DismissedWorse + st.Pruned; dismissals != want {
		t.Errorf("trace has %d dismiss events, Stats counted %d", dismissals, want)
	}
	if reasons["worse"] != st.DismissedWorse || reasons["stale"] != st.Dismissed || reasons["pruned"] != st.Pruned {
		t.Errorf("dismiss reasons %v disagree with Stats %+v", reasons, st)
	}
	for r := range reasons {
		switch r {
		case "worse", "stale", "pruned", "beam_trim":
		default:
			t.Errorf("unknown dismiss reason %q", r)
		}
	}
}

// TestDismissedChildAllocFreeWithTelemetry re-runs the hot-path
// allocation guard with metrics attached: the per-child work (pooled
// construction, dismissal through admitChild with its stack-local
// accounting, recycle) plus a registry flush must still allocate
// nothing. This is the zero-overhead contract of DESIGN.md §6 — enabling
// telemetry must not cost the search its allocation-free inner loop.
func TestDismissedChildAllocFreeWithTelemetry(t *testing.T) {
	sv, root, node := hotPathSolver(t, 120, 4, true)
	sv.opts.Metrics = telemetry.New()
	met := newSolverMetrics(sv.opts.Metrics)
	met.begin(sv)
	var stats Stats
	primeDismissal(sv, sv.table, root, node)
	inc := sv.newIncumbent()
	allocs := testing.AllocsPerRun(200, func() {
		c, _ := dismissChild(t, sv, sv.table, inc, root, node, &stats)
		sv.recycle(c)
		// Every iteration flushes — far more often than the real
		// flushEvery cadence — and must still be allocation-free.
		met.flush(&stats, 1, 1, sv.table, time.Millisecond)
	})
	if allocs > 0 {
		t.Fatalf("dismissed child with telemetry enabled costs %.1f allocs; want 0", allocs)
	}
}

// TestDismissedChildAllocFreeWithTracing tightens the guard further:
// metrics, an open phase span, and a live event tracer emitting every
// dismiss event (t_ms-stamped, into a FlightRecorder ring) must together
// keep the dismissed-child path at 0 allocations. This is the acceptance
// bar for always-on flight recording — the durable JSONL writer allocates
// in encoding/json, so "tracing without allocation" specifically means a
// struct-copy sink.
func TestDismissedChildAllocFreeWithTracing(t *testing.T) {
	sv, root, node := hotPathSolver(t, 120, 4, true)
	sv.opts.Metrics = telemetry.New()
	met := newSolverMetrics(sv.opts.Metrics)
	met.begin(sv)

	rec := telemetry.NewFlightRecorder(256)
	em := telemetry.NewEmitter(rec)
	spans := telemetry.NewSpanRecorder(sv.opts.Metrics, em)
	tr := NewEventTracer(em)
	tr.SolveStart(120, 4, "OA*", 1)
	search := spans.Start("search")

	var stats Stats
	primeDismissal(sv, sv.table, root, node)
	inc := sv.newIncumbent()
	allocs := testing.AllocsPerRun(200, func() {
		c, r := dismissChild(t, sv, sv.table, inc, root, node, &stats)
		tr.Dismiss(stats.VisitedPaths, c.q, c.g, r)
		sv.recycle(c)
		met.flush(&stats, 1, 1, sv.table, time.Millisecond)
	})
	search.End()
	if allocs > 0 {
		t.Fatalf("dismissed child with tracing+spans enabled costs %.1f allocs; want 0", allocs)
	}
	dismissed := 0
	for _, ev := range rec.Events() {
		if ev.SolveID != em.SolveID() || ev.TMS <= 0 {
			t.Fatalf("recorded event not stamped: %+v", ev)
		}
		if ev.Ev == "dismiss" {
			dismissed++
		}
	}
	if dismissed < 200 {
		t.Fatalf("flight recorder retained %d dismiss events, want >= 200", dismissed)
	}
	if res := spans.Results(); len(res) != 1 || res[0].Name != "search" {
		t.Fatalf("span results = %v", res)
	}
}

// TestSolveWithMetricsMatchesPlain pins that attaching a registry does
// not change the search result.
func TestSolveWithMetricsMatchesPlain(t *testing.T) {
	plain := solveWith(t, pairwiseGraphTB(t, 16, 4, 3), Options{H: HPerProc, UseIncumbent: true})
	observed := solveWith(t, pairwiseGraphTB(t, 16, 4, 3),
		Options{H: HPerProc, UseIncumbent: true, Metrics: telemetry.New()})
	if math.Abs(plain.Cost-observed.Cost) > 1e-12 || plain.Stats.VisitedPaths != observed.Stats.VisitedPaths {
		t.Errorf("telemetry changed the search: plain cost=%v pops=%d, observed cost=%v pops=%d",
			plain.Cost, plain.Stats.VisitedPaths, observed.Cost, observed.Stats.VisitedPaths)
	}
}
