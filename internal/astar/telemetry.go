package astar

import (
	"fmt"
	"time"

	"cosched/internal/abort"
	"cosched/internal/job"
	"cosched/internal/telemetry"
)

// This file is the solver side of the telemetry layer (see
// internal/telemetry and DESIGN.md §6): the event tracer, the registry
// flush, and the progress/ETA reports. Nothing here runs per generated
// child — per-child accounting stays in the stack-local Stats struct and
// is folded into the registry every flushEvery pops, which is what
// preserves the 0-alloc dismissed-child guarantee of
// bench_hotpath_test.go when telemetry is enabled.

// flushEvery is the pop interval between registry flushes (and progress
// polls, at a finer 256-pop cadence). Chosen so that even million-pop
// searches pay a few hundred atomic writes total.
const flushEvery = 4096

// DismissReason classifies why a sub-path left the search without being
// expanded; it is the per-reason breakdown behind Stats.DismissedWorse,
// Stats.Dismissed, Stats.Pruned and Stats.BeamTrimmed.
type DismissReason uint8

const (
	// DismissWorse: a same-key sub-path at least as cheap was already
	// recorded (Theorem 1 dismissal before admission).
	DismissWorse DismissReason = iota
	// DismissStale: the sub-path was admitted but superseded by a cheaper
	// same-key one before its expansion (stale pop / beam supersede).
	DismissStale
	// DismissPruned: the sub-path's f exceeded the incumbent bound.
	DismissPruned
	// DismissBeamTrim: the beam's per-depth width cap dropped it.
	DismissBeamTrim
)

// String implements fmt.Stringer with the stable names the JSONL event
// schema uses.
func (r DismissReason) String() string {
	switch r {
	case DismissWorse:
		return "worse"
	case DismissStale:
		return "stale"
	case DismissPruned:
		return "pruned"
	case DismissBeamTrim:
		return "beam_trim"
	default:
		return fmt.Sprintf("DismissReason(%d)", uint8(r))
	}
}

// EventTracer writes a graph search's trace through one
// telemetry.Emitter: solve_start, every expansion, every dismissal with
// its reason, progress, the abort of a degraded solve, and the closing
// stats and solution events. The Emitter's sink decides durability: a
// telemetry.EventWriter gives the JSONL trace file, a FlightRecorder the
// in-memory last-N window, MultiSink both.
//
// A nil *EventTracer is tracing off. The solver tests tr != nil inline
// before each per-pop and per-child call (Expand, Dismiss); SolveStart,
// Progress, Abort and Finish are nil-safe.
type EventTracer struct {
	em telemetry.Emitter
	// HName names the heuristic strategy for the solve_start event
	// (Options.H.String(); empty omits the field).
	HName string
	u     int
}

// NewEventTracer returns a tracer writing through em, or nil — tracing
// off — when em has no sink.
func NewEventTracer(em telemetry.Emitter) *EventTracer {
	if !em.On() {
		return nil
	}
	return &EventTracer{em: em}
}

// SolveStart opens a solve's trace with the batch geometry, the search
// mode (Solver.searchMethod) and the expansion-worker count, recorded
// only when above 1: parallel workers interleave expand events, so trace
// consumers relax the order-sensitive invariants.
func (t *EventTracer) SolveStart(n, u int, method string, parallelism int) {
	if t == nil {
		return
	}
	t.u = u
	ev := telemetry.Event{Ev: "solve_start", N: n, U: u, Method: method, HName: t.HName}
	if parallelism > 1 {
		ev.Parallelism = parallelism
	}
	t.em.Emit(ev)
}

// Expand records one popped element. t must be non-nil.
func (t *EventTracer) Expand(popIndex int64, depth int, g, h float64, leader job.ProcID) {
	t.em.Emit(telemetry.Event{
		Ev: "expand", Pop: popIndex, Depth: depth, Q: depth * t.u,
		G: g, H: h, Leader: int(leader),
	})
}

// Dismiss records one dismissed sub-path: popIndex is the expansion that
// generated it (the current pop for pre-admission dismissals), q its
// scheduled-process count and g its Eq. 13 distance. t must be non-nil.
func (t *EventTracer) Dismiss(popIndex int64, q int, g float64, reason DismissReason) {
	t.em.Emit(telemetry.Event{Ev: "dismiss", Pop: popIndex, Q: q, G: g, Reason: reason.String()})
}

// Progress mirrors a rate-limited progress report into the trace
// (etaSec < 0 means no estimate yet).
func (t *EventTracer) Progress(popIndex int64, frontier int, popsPerSec, etaSec, elapsedSec float64) {
	if t == nil {
		return
	}
	ev := telemetry.Event{
		Ev: "progress", Pop: popIndex, Frontier: frontier,
		PopsPerSec: popsPerSec, ElapsedSec: elapsedSec,
	}
	if etaSec >= 0 {
		ev.ETASec = etaSec
	}
	t.em.Emit(ev)
}

// Abort records an early stop (deadline, cancellation, expansion cap or
// memory budget) with the pop index at which it was detected and the
// reason's stable name. The solution event then repeats the reason, so a
// degraded trace is self-describing and coschedtrace check can tie the
// two together.
func (t *EventTracer) Abort(popIndex int64, reason abort.Reason) {
	if t == nil {
		return
	}
	t.em.Emit(telemetry.Event{Ev: "abort", Pop: popIndex, Reason: reason.String()})
}

// Finish closes a solve's trace: the final counters as one stats event,
// which makes the trace self-verifying (coschedtrace check reconciles
// the event stream against them), then the solution when groups is
// non-nil (repeating st.Aborted on a degraded solve), then a sink
// flush.
func (t *EventTracer) Finish(st *Stats, cost float64, groups [][]job.ProcID) {
	if t == nil {
		return
	}
	t.em.Emit(telemetry.Event{
		Ev:             "stats",
		Visited:        st.VisitedPaths,
		Expanded:       st.Expanded,
		Generated:      st.Generated,
		DismissedStale: st.Dismissed,
		DismissedWorse: st.DismissedWorse,
		Pruned:         st.Pruned,
		BeamTrimmed:    st.BeamTrimmed,
		InFrontier:     st.InFrontier,
		Condensed:      st.Condensed,
	})
	if groups != nil {
		t.em.Emit(telemetry.Event{
			Ev: "solution", Cost: cost, Groups: telemetry.GroupInts(groups), Reason: st.Aborted.String(),
		})
	}
	t.em.Flush() //nolint:errcheck // the trace is best-effort
}

// solverMetrics caches the registry handles of the astar.* metric
// family, resolved once per solve. All methods are nil-receiver-safe, so
// the solver calls them unconditionally; with a nil Options.Metrics the
// whole layer reduces to a handful of predictable nil checks.
type solverMetrics struct {
	reg                                 *telemetry.Registry // for the rare, on-demand astar.aborts.* handles
	solves, pops, expanded, generated   *telemetry.Counter
	dismissedWorse, dismissedStale      *telemetry.Counter
	pruned, condensed, beamTrimmed      *telemetry.Counter
	elemAllocated, elemReused           *telemetry.Counter
	prepareNS, solveNS                  *telemetry.Counter
	frontier, heapMax, ktEntries, depth *telemetry.Gauge
	ktLoad, popsPerSec                  *telemetry.FloatGauge
	last                                Stats // state at the previous flush, for delta accumulation
}

// newSolverMetrics resolves the handle set, or returns nil when
// telemetry is disabled.
func newSolverMetrics(r *telemetry.Registry) *solverMetrics {
	if r == nil {
		return nil
	}
	return &solverMetrics{
		reg:            r,
		solves:         r.Counter("astar.solves"),
		pops:           r.Counter("astar.pops"),
		expanded:       r.Counter("astar.expanded"),
		generated:      r.Counter("astar.generated"),
		dismissedWorse: r.Counter("astar.dismissed.worse"),
		dismissedStale: r.Counter("astar.dismissed.stale"),
		pruned:         r.Counter("astar.dismissed.pruned"),
		condensed:      r.Counter("astar.condensed"),
		beamTrimmed:    r.Counter("astar.beam.trimmed"),
		elemAllocated:  r.Counter("astar.pool.allocated"),
		elemReused:     r.Counter("astar.pool.reused"),
		prepareNS:      r.Counter("astar.prepare_ns"),
		solveNS:        r.Counter("astar.solve_ns"),
		frontier:       r.Gauge("astar.frontier"),
		heapMax:        r.Gauge("astar.frontier.max"),
		ktEntries:      r.Gauge("astar.keytable.entries"),
		depth:          r.Gauge("astar.depth"),
		ktLoad:         r.FloatGauge("astar.keytable.load"),
		popsPerSec:     r.FloatGauge("astar.pops_per_sec"),
	}
}

// begin records the solve start: the solves counter, the one-off
// preparation timing (charged to the solver's first solve only) and the
// pool baseline (pool counters are cumulative per solver, so finish must
// publish this solve's delta only).
func (m *solverMetrics) begin(s *Solver) {
	if m == nil {
		return
	}
	m.solves.Add(1)
	if s.prepDur > 0 {
		m.prepareNS.Add(s.prepDur.Nanoseconds())
	}
	for _, p := range s.allPools {
		m.last.ElemAllocated += p.gets - p.reuse
		m.last.ElemReused += p.reuse
	}
}

// flush folds the counter deltas since the previous flush into the
// registry and refreshes the gauges. frontierLen is the current
// priority-list (or beam frontier) length; depth the deepest path depth
// reached, in machines.
func (m *solverMetrics) flush(st *Stats, frontierLen, depth int, t *gTable, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.pops.Add(st.VisitedPaths - m.last.VisitedPaths)
	m.expanded.Add(st.Expanded - m.last.Expanded)
	m.generated.Add(st.Generated - m.last.Generated)
	m.dismissedWorse.Add(st.DismissedWorse - m.last.DismissedWorse)
	m.dismissedStale.Add(st.Dismissed - m.last.Dismissed)
	m.pruned.Add(st.Pruned - m.last.Pruned)
	m.condensed.Add(st.Condensed - m.last.Condensed)
	m.beamTrimmed.Add(st.BeamTrimmed - m.last.BeamTrimmed)
	// Preserve the pool baseline: those fields are only populated at the
	// end of the solve (fillAllocStats) and belong to finish.
	ea, er := m.last.ElemAllocated, m.last.ElemReused
	m.last = *st
	m.last.ElemAllocated, m.last.ElemReused = ea, er
	m.frontier.Set(int64(frontierLen))
	m.heapMax.Set(int64(st.MaxQueue))
	m.depth.Set(int64(depth))
	if t != nil {
		m.ktEntries.Set(int64(t.count))
		m.ktLoad.Set(t.load())
	}
	if s := elapsed.Seconds(); s > 0 {
		m.popsPerSec.Set(float64(st.VisitedPaths) / s)
	}
}

// finish adds the end-of-solve aggregates (pool behaviour, solve time)
// after fillAllocStats has populated them.
func (m *solverMetrics) finish(st *Stats) {
	if m == nil {
		return
	}
	m.elemAllocated.Add(st.ElemAllocated - m.last.ElemAllocated)
	m.elemReused.Add(st.ElemReused - m.last.ElemReused)
	m.last.ElemAllocated = st.ElemAllocated
	m.last.ElemReused = st.ElemReused
	m.solveNS.Add(st.Duration.Nanoseconds())
}

// abort bumps the astar.aborts.<reason> counter. Aborts happen at most
// once per solve and off the hot path, so the on-demand handle lookup
// (and its key allocation) is fine here.
func (m *solverMetrics) abort(r abort.Reason) {
	if m == nil {
		return
	}
	m.reg.Counter("astar.aborts." + r.String()).Add(1)
}

// searchMethod names the active search mode for the solve_start event.
// An untrimmed best-first search with h = 0 is uniform-cost search: the
// O-SVP baseline [33].
func (s *Solver) searchMethod() string {
	switch {
	case s.opts.BeamWidth > 0:
		return "beam"
	case s.opts.KPerLevel > 0:
		return "HA*"
	case s.opts.H == HNone:
		return "O-SVP"
	default:
		return "OA*"
	}
}

// progressReporter picks the active reporter for this solve:
// Options.Progress when set, a default-cadence internal one when only the
// tracer wants progress events, nil when nobody does.
func (s *Solver) progressReporter() *telemetry.ProgressReporter {
	if s.opts.Progress != nil {
		return s.opts.Progress
	}
	if s.opts.Tracer != nil {
		return &telemetry.ProgressReporter{}
	}
	return nil
}

// maybeProgress emits a progress report (to the reporter's writer and
// into the trace) if one is due. qMax is the deepest scheduled-process
// count reached; the ETA extrapolates elapsed time linearly over
// remaining depth, a deliberately coarse estimate that is primarily
// useful for beam/HA* searches whose work per depth is bounded.
func (s *Solver) maybeProgress(p *telemetry.ProgressReporter, st *Stats, frontierLen, qMax int, start time.Time) {
	if p == nil {
		return
	}
	now := time.Now()
	if !p.Due(now) {
		return
	}
	elapsed := now.Sub(start)
	rate := float64(st.VisitedPaths) / elapsed.Seconds()
	eta := -1.0
	if qMax > 0 && qMax < s.n {
		eta = elapsed.Seconds() * float64(s.n-qMax) / float64(qMax)
	}
	if p.W != nil {
		line := fmt.Sprintf("astar: pop %d depth %d/%d frontier %d %.0f pops/s elapsed %s",
			st.VisitedPaths, qMax/s.u, s.n/s.u, frontierLen, rate, elapsed.Round(time.Second))
		if eta >= 0 {
			line += fmt.Sprintf(" eta ~%s", (time.Duration(eta * float64(time.Second))).Round(time.Second))
		}
		fmt.Fprintln(p.W, line) //nolint:errcheck
	}
	s.opts.Tracer.Progress(st.VisitedPaths, frontierLen, rate, eta, elapsed.Seconds())
}
