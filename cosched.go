// Package cosched finds contention-aware co-schedules for a mix of serial
// and parallel jobs on multicore machines, implementing the methods of
// Zhu, He, Gao, Li & Li, "Modelling and Developing Co-scheduling
// Strategies on Multicore Processors" (ICPP 2015):
//
//   - OA*: an extended A*-search over the co-scheduling graph that finds
//     the provably minimal total-degradation schedule (§III),
//   - HA*: a heuristic A* that trims each graph level to its n/u cheapest
//     candidate nodes and finds near-optimal schedules orders of magnitude
//     faster (§IV),
//   - IP: an integer-programming formulation solved by branch-and-bound
//     (§II),
//   - O-SVP and PG: the two baselines the paper compares against,
//   - BruteForce: exhaustive enumeration for verification on small
//     batches.
//
// The quickstart:
//
//	w := cosched.NewWorkload()
//	w.AddSerial("art")
//	w.AddSerial("EP")
//	w.AddPC("MG-Par", 4)
//	inst, _ := w.Build(cosched.QuadCore)
//	sched, _ := cosched.Solve(inst, cosched.Options{Method: cosched.MethodOAStar})
//	fmt.Println(sched.AvgDegradation())
package cosched

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"cosched/internal/abort"
	"cosched/internal/astar"
	"cosched/internal/bruteforce"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/ip"
	"cosched/internal/job"
	"cosched/internal/pg"
	"cosched/internal/telemetry"
)

// Method selects the co-scheduling algorithm.
type Method int

const (
	// MethodOAStar is the Optimal A*-search (§III): exact, with h(v)
	// pruning and optional process condensation.
	MethodOAStar Method = iota
	// MethodHAStar is the Heuristic A*-search (§IV): near-optimal, each
	// level trimmed to the first MER = n/u candidate nodes by weight.
	MethodHAStar
	// MethodIP solves the integer-programming formulation (§II) by
	// branch-and-bound.
	MethodIP
	// MethodOSVP is the Dijkstra-based optimal baseline of [33].
	MethodOSVP
	// MethodPG is the politeness-greedy heuristic baseline of [18].
	MethodPG
	// MethodBruteForce enumerates all partitions (verification only;
	// guarded to small batches).
	MethodBruteForce
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodOAStar:
		return "OA*"
	case MethodHAStar:
		return "HA*"
	case MethodIP:
		return "IP"
	case MethodOSVP:
		return "O-SVP"
	case MethodPG:
		return "PG"
	case MethodBruteForce:
		return "brute-force"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Accounting selects how parallel jobs enter the objective, matching the
// paper's three OA* variants (§V-B).
type Accounting int

const (
	// AccountPC is the full model: per-parallel-job maxima with
	// communication-combined degradation for PC jobs (Eq. 9 + Eq. 13).
	// This is the default and what OA*-PC uses.
	AccountPC Accounting = iota
	// AccountPE recognises per-job maxima but ignores communication
	// (OA*-PE).
	AccountPE
	// AccountSE treats every process as serial and sums everything
	// (Eq. 12; OA*-SE).
	AccountSE
)

// AbortReason says why a solve stopped before proving its answer. The
// zero value AbortNone means the solve completed normally; any other
// value accompanies Stats.Degraded on a best-effort schedule.
type AbortReason = abort.Reason

// The abort reasons a degraded solve can carry: the context deadline
// expired (AbortDeadline), the context was cancelled (AbortCancel), the
// MaxExpansions / IP node cap was hit (AbortExpansions), or the search's
// estimated live footprint breached MemoryBudget (AbortMemory).
const (
	AbortNone       = abort.None
	AbortDeadline   = abort.Deadline
	AbortCancel     = abort.Cancel
	AbortExpansions = abort.Expansions
	AbortMemory     = abort.Memory
)

// PanicError wraps a panic recovered at the Solve boundary — typically
// thrown by a user-supplied callback (tracer, event sink) — so a
// misbehaving observer fails the one solve instead of crashing the
// process. The event sink is flushed before the error is returned, so
// the partial trace survives for post-mortem analysis.
type PanicError = abort.PanicError

// OptionError reports an Options field that cannot be meaningfully
// interpreted (negative budgets, NaN weights, unknown preset names).
// Solve and SolveContext validate options up front and return it before
// doing any work.
type OptionError struct {
	// Field is the Options field name, Value its rejected value and
	// Reason why it was rejected.
	Field  string
	Value  any
	Reason string
}

// Error implements the error interface.
func (e *OptionError) Error() string {
	return fmt.Sprintf("cosched: invalid option %s = %v: %s", e.Field, e.Value, e.Reason)
}

func (a Accounting) mode() degradation.Mode {
	switch a {
	case AccountSE:
		return degradation.ModeSE
	case AccountPE:
		return degradation.ModePE
	default:
		return degradation.ModePC
	}
}

// Options tunes a Solve call. The zero value requests OA* with the
// per-process bound as h, condensation on and full PC accounting.
type Options struct {
	Method     Method
	Accounting Accounting
	// HStrategy: 0 = the per-process bound, as 3; 1 and 2 force the
	// paper's two strategies (§III-D). Every choice returns the same OA*
	// cost and runs at any Parallelism. HA* above 40 processes keeps its
	// average-cost estimator whatever the choice.
	HStrategy int
	// KPerLevel overrides HA*'s per-level candidate budget; 0 means the
	// paper's MER function n/u. Ignored by other methods.
	KPerLevel int
	// DisableCondensation turns off the §III-E process condensation.
	DisableCondensation bool
	// ExactParallel strengthens OA*'s dismissal key with per-job maxima
	// (see DESIGN.md §3).
	ExactParallel bool
	// HWeight inflates the graph-search heuristic: f = g + HWeight·h
	// (weighted A*). Zero means 1. Only meaningful for MethodHAStar;
	// Validate refuses values above 1 for OA*, because they forfeit
	// optimality.
	HWeight float64
	// BeamWidth, when positive, turns MethodHAStar into a beam search
	// that expands at most BeamWidth elements per path depth — strictly
	// bounded work, the most robust rung short of PG. Zero means the
	// method's default (unbounded below 40 processes).
	BeamWidth int
	// Parallelism sets the number of expansion workers for the graph
	// searches (OA*/HA*): 0 picks runtime.GOMAXPROCS(0), 1 forces the
	// exact legacy sequential path, higher values run the sharded-frontier
	// parallel engine when the configuration's answer is order-independent
	// (any HStrategy at HWeight <= 1 with exact dismissal — SE accounting
	// or ExactParallel when the batch has parallel jobs — or any beam
	// search) and silently fall back to sequential otherwise.
	// The schedule's Stats.Parallelism records what actually ran.
	// IP/PG/O-SVP/brute-force ignore it.
	Parallelism int
	// IPConfig selects the branch-and-bound preset by name
	// ("bnb-best+round", "bnb-best", "bnb-depth", "bnb-basic"); empty
	// means the strongest.
	IPConfig string
	// MaxExpansions stops graph searches after this many expansions —
	// and IP solves after this many branch-and-bound nodes — returning
	// the best incumbent as a degraded schedule (0 = none).
	MaxExpansions int64
	// MemoryBudget, when positive, caps a graph search's estimated live
	// byte footprint (pooled elements, dismissal-key table, priority
	// list). On breach the search returns its best incumbent as a
	// degraded schedule (AbortMemory) instead of growing the frontier
	// until the process dies, at any Parallelism and on every SolveRobust
	// rung. Zero means unbounded; IP/PG/brute-force ignore it.
	MemoryBudget int64
	// EventTraceWriter, when non-nil, receives the machine-readable JSONL
	// event stream of the solve (telemetry.Event per line: solve_start,
	// expansions, dismissals with reason, progress, phase spans, final
	// stats, solution; see DESIGN.md §6). The stream is what
	// cmd/coschedtrace analyses offline.
	EventTraceWriter io.Writer
	// EventSink, when non-nil, receives the same event stream through the
	// telemetry.EventSink interface — typically a FlightRecorder keeping
	// the last N events in memory for post-hoc dumps. When both
	// EventTraceWriter and EventSink are set, events fan out to both.
	EventSink telemetry.EventSink
	// Metrics, when non-nil, receives live solver telemetry: the method's
	// counter/gauge family ("astar.*", "ip.*", "osvp.*", "pg.*") as
	// catalogued in DESIGN.md §6. Pass telemetry.Default to feed the
	// registry the CLIs publish over expvar.
	Metrics *telemetry.Registry
	// ProgressWriter, when non-nil, receives rate-limited human-readable
	// progress lines (pops, pops/sec, frontier size, ETA) during long
	// graph searches. ProgressEvery sets the line interval (0 = 2s).
	ProgressWriter io.Writer
	ProgressEvery  time.Duration
}

// Validate rejects option values that have no meaningful interpretation
// before any solver work starts, so nonsense surfaces as a typed
// OptionError instead of a hang, a panic or a silently absurd schedule.
// SolveContext and SolveRobust call it first; a caller that queues
// work before solving (the serving daemon) calls it before admission.
func (o *Options) Validate() error {
	if o.Method < MethodOAStar || o.Method > MethodBruteForce {
		return &OptionError{Field: "Method", Value: int(o.Method), Reason: "unknown method"}
	}
	if o.Accounting < AccountPC || o.Accounting > AccountSE {
		return &OptionError{Field: "Accounting", Value: int(o.Accounting), Reason: "unknown accounting mode"}
	}
	if o.HStrategy < 0 || o.HStrategy > 3 {
		return &OptionError{Field: "HStrategy", Value: o.HStrategy, Reason: "must be 0 or 3 (the per-process bound), 1 or 2 (the paper's strategies)"}
	}
	if o.KPerLevel < 0 {
		return &OptionError{Field: "KPerLevel", Value: o.KPerLevel, Reason: "must be non-negative"}
	}
	if math.IsNaN(o.HWeight) || o.HWeight < 0 {
		return &OptionError{Field: "HWeight", Value: o.HWeight, Reason: "must be a non-negative number"}
	}
	if o.Method == MethodOAStar && o.HWeight > 1 {
		return &OptionError{Field: "HWeight", Value: o.HWeight, Reason: "above 1 forfeits OA*'s optimality; use it with MethodHAStar"}
	}
	if o.BeamWidth < 0 {
		return &OptionError{Field: "BeamWidth", Value: o.BeamWidth, Reason: "must be non-negative"}
	}
	if o.MaxExpansions < 0 {
		return &OptionError{Field: "MaxExpansions", Value: o.MaxExpansions, Reason: "must be non-negative"}
	}
	if o.MemoryBudget < 0 {
		return &OptionError{Field: "MemoryBudget", Value: o.MemoryBudget, Reason: "must be non-negative"}
	}
	if o.Parallelism < 0 {
		return &OptionError{Field: "Parallelism", Value: o.Parallelism, Reason: "must be non-negative"}
	}
	if o.IPConfig != "" {
		found := false
		for _, c := range ip.Configs() {
			if c.Name == o.IPConfig {
				found = true
				break
			}
		}
		if !found {
			return &OptionError{Field: "IPConfig", Value: o.IPConfig, Reason: "unknown branch-and-bound preset"}
		}
	}
	return nil
}

// solveObs bundles the per-call observation state every Solve carries:
// the call's trace emitter — one solve id and epoch shared by the phase
// spans, the graph search, IP and the PG/brute-force answers — and the
// phase-span recorder (always on — four clock reads per solve — so
// Stats.Phases is populated even without telemetry).
type solveObs struct {
	em    telemetry.Emitter
	spans *telemetry.SpanRecorder
}

func newSolveObs(opts *Options) *solveObs {
	sink := opts.EventSink
	if opts.EventTraceWriter != nil {
		sink = telemetry.MultiSink(telemetry.NewEventWriter(opts.EventTraceWriter), sink)
	}
	em := telemetry.NewEmitter(sink)
	return &solveObs{em: em, spans: telemetry.NewSpanRecorder(opts.Metrics, em)}
}

// phases converts the completed spans into the Stats breakdown.
func (o *solveObs) phases() []Phase {
	res := o.spans.Results()
	if len(res) == 0 {
		return nil
	}
	out := make([]Phase, len(res))
	for i, r := range res {
		out[i] = Phase{Name: r.Name, Duration: time.Duration(r.DurMS * float64(time.Millisecond))}
	}
	return out
}

// Solve schedules the instance's batch and returns the schedule. It is
// SolveContext with a background context: no cancellation, no deadline.
func Solve(inst *Instance, opts Options) (*Schedule, error) {
	return SolveContext(context.Background(), inst, opts)
}

// SolveContext is Solve with a wall clock: the context's deadline and
// cancellation are the only time budget, polled inside the solver hot
// loops (once per graph pop / branch-and-bound node), so an expired
// deadline or a cancel stops the solve promptly, mid-frontier. A solve
// stopped early does not fail: it returns the best incumbent found so
// far as a feasible *Schedule flagged Stats.Degraded, with
// Stats.AbortReason saying why (AbortDeadline, AbortCancel,
// AbortExpansions, AbortMemory).
//
// Invalid options are rejected up front with an *OptionError, and a
// panic thrown by a user-supplied callback (tracer, event sink) is
// recovered at this boundary into a *PanicError after flushing the
// event sink, so one misbehaving observer cannot take down the process.
func SolveContext(ctx context.Context, inst *Instance, opts Options) (sched *Schedule, err error) {
	if inst == nil || inst.in == nil {
		return nil, fmt.Errorf("cosched: nil instance")
	}
	if verr := opts.Validate(); verr != nil {
		return nil, verr
	}
	if ctx == nil {
		ctx = context.Background()
	}
	obs := newSolveObs(&opts)
	defer func() {
		if r := recover(); r != nil {
			obs.em.Flush() //nolint:errcheck // keep the partial trace
			sched, err = nil, abort.Recovered(r)
		}
	}()
	sp := obs.spans.Start("oracle")
	cost := inst.in.Cost(opts.Accounting.mode())
	sp.End()
	switch opts.Method {
	case MethodOAStar, MethodHAStar, MethodOSVP:
		sched, err = solveGraph(ctx, inst, cost, opts, obs)
	case MethodIP:
		sched, err = solveIP(ctx, inst, cost, opts, obs)
	case MethodPG, MethodBruteForce:
		sched, err = solveOneShot(ctx, inst, cost, opts, obs)
	default:
		return nil, &OptionError{Field: "Method", Value: int(opts.Method), Reason: "unknown method"}
	}
	if err != nil {
		obs.em.Flush() //nolint:errcheck // keep the partial trace
		return nil, err
	}
	sched.Stats.Phases = obs.phases()
	sched.Stats.SolveID = obs.em.SolveID()
	obs.em.Flush() //nolint:errcheck // span events after the solution
	return sched, nil
}

// solveOneShot runs the two solvers that have no search events of their
// own, PG and brute force, and traces their header and answer:
// solve_start, an abort when the context had already expired, a
// zero-counter stats event and the solution.
func solveOneShot(ctx context.Context, inst *Instance, cost *degradation.Cost, opts Options, obs *solveObs) (*Schedule, error) {
	b := cost.Batch
	obs.em.Emit(telemetry.Event{Ev: "solve_start", N: b.NumProcs(), U: b.Cores, Method: opts.Method.String()})
	sp := obs.spans.Start("search")
	var groups [][]job.ProcID
	var total float64
	var st Stats
	if opts.Method == MethodPG {
		res := pg.SolveObserved(cost, opts.Metrics)
		groups, total = res.Groups, res.Cost
		// PG is a one-pass greedy pairing: it always finishes, so an
		// already-done context only marks its answer degraded rather
		// than suppressing it — PG is the ladder rung that never fails.
		if ctx.Err() != nil {
			st.Degraded = true
			st.AbortReason = abort.FromContext(ctx)
		}
	} else {
		res, err := bruteforce.SolveContext(ctx, cost)
		if err != nil {
			sp.End()
			return nil, err
		}
		groups, total = res.Groups, res.Cost
		st.Degraded, st.AbortReason = res.Degraded, res.Aborted
	}
	sp.End()
	if obs.em.On() {
		if st.Degraded {
			obs.em.Emit(telemetry.Event{Ev: "abort", Reason: st.AbortReason.String()})
		}
		obs.em.Emit(telemetry.Event{Ev: "stats"})
		obs.em.Emit(telemetry.Event{
			Ev: "solution", Cost: total, Groups: telemetry.GroupInts(groups),
			Reason: st.AbortReason.String(),
		})
	}
	return newSchedule(inst, cost, groups, total, st), nil
}

func solveGraph(ctx context.Context, inst *Instance, cost *degradation.Cost, opts Options, obs *solveObs) (*Schedule, error) {
	sp := obs.spans.Start("graph")
	g := graph.New(cost, inst.in.Patterns)
	sp.End()
	par := opts.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// The per-process bound is the automatic h; HStrategy 1 and 2 force
	// the paper's strategies, except where HA*'s large-batch policy
	// needs its estimator.
	aopts := astar.Options{H: astar.HPerProc}
	if opts.Method == MethodHAStar {
		aopts = astar.HAStarOptions(g.N(), g.U())
		if opts.KPerLevel > 0 {
			aopts.KPerLevel = opts.KPerLevel
		}
		// An explicit beam is what makes the SolveRobust ladder's third
		// rung strictly bounded.
		if opts.BeamWidth > 0 {
			aopts.BeamWidth = opts.BeamWidth
		}
	}
	if aopts.H == astar.HPerProc {
		switch opts.HStrategy {
		case 1:
			aopts.H = astar.HStrategy1
		case 2:
			aopts.H = astar.HStrategy2
		}
	}
	if opts.HWeight > 0 {
		aopts.HWeight = opts.HWeight
	}
	aopts.Condense = !opts.DisableCondensation
	aopts.ExactParallel = opts.ExactParallel
	aopts.MaxExpansions = opts.MaxExpansions
	aopts.MemoryBudget = opts.MemoryBudget
	aopts.Parallelism = par
	aopts.Ctx = ctx
	aopts.Metrics = opts.Metrics
	tr := astar.NewEventTracer(obs.em)
	aopts.Tracer = tr
	if opts.ProgressWriter != nil {
		aopts.Progress = &telemetry.ProgressReporter{W: opts.ProgressWriter, Every: opts.ProgressEvery}
	}
	if opts.Method == MethodOSVP {
		// O-SVP [33] is this search with h = 0, no condensation, no
		// incumbent and one worker: uniform-cost search. Its phases have
		// no prepare span of their own (h = 0 precomputes nothing) and
		// its trace header names no h strategy.
		if opts.Metrics != nil {
			opts.Metrics.Counter("osvp.solves").Add(1)
		}
		sp = obs.spans.Start("search")
		s, err := astar.NewSolver(g, astar.Options{
			H:             astar.HNone,
			MaxExpansions: opts.MaxExpansions,
			MemoryBudget:  opts.MemoryBudget,
			Ctx:           ctx,
			Metrics:       opts.Metrics,
			Tracer:        tr,
			Progress:      aopts.Progress,
		})
		var res *astar.Result
		if err == nil {
			res, err = s.Solve()
		}
		sp.End()
		if err != nil {
			return nil, err
		}
		return newSchedule(inst, cost, res.Groups, res.Cost, searchStats(res)), nil
	}
	if tr != nil {
		tr.HName = aopts.H.String()
	}
	sp = obs.spans.Start("prepare")
	s, err := astar.NewSolver(g, aopts)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.spans.Start("search")
	res, err := s.Solve()
	sp.End()
	if err != nil {
		return nil, err
	}
	return newSchedule(inst, cost, res.Groups, res.Cost, searchStats(res)), nil
}

func solveIP(ctx context.Context, inst *Instance, cost *degradation.Cost, opts Options, obs *solveObs) (*Schedule, error) {
	sp := obs.spans.Start("model")
	model, err := ip.BuildModel(cost)
	sp.End()
	if err != nil {
		return nil, err
	}
	cfg := ip.ConfigA
	if opts.IPConfig != "" {
		found := false
		for _, c := range ip.Configs() {
			if c.Name == opts.IPConfig {
				cfg, found = c, true
				break
			}
		}
		if !found {
			// Validate already vets the name; this guards direct callers.
			return nil, &OptionError{Field: "IPConfig", Value: opts.IPConfig, Reason: "unknown branch-and-bound preset"}
		}
	}
	cfg.Ctx = ctx
	if opts.MaxExpansions > 0 {
		cfg.MaxNodes = opts.MaxExpansions
	}
	cfg.Metrics = opts.Metrics
	cfg.Trace = obs.em
	sp = obs.spans.Start("search")
	res, err := ip.Solve(model, cfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	st := Stats{
		BBNodes:           res.Stats.Nodes,
		LPIters:           res.Stats.LPIters,
		BoundImprovements: res.Stats.BoundImprovements,
		Duration:          res.Stats.Duration,
		Degraded:          res.Stats.Degraded,
		AbortReason:       res.Stats.Aborted,
	}
	return newSchedule(inst, cost, res.Groups, res.Cost, st), nil
}

func searchStats(r *astar.Result) Stats {
	return Stats{
		VisitedPaths:    r.Stats.VisitedPaths,
		Expanded:        r.Stats.Expanded,
		Generated:       r.Stats.Generated,
		Dismissed:       r.Stats.Dismissed,
		DismissedWorse:  r.Stats.DismissedWorse,
		Condensed:       r.Stats.Condensed,
		Pruned:          r.Stats.Pruned,
		BeamTrimmed:     r.Stats.BeamTrimmed,
		InFrontier:      r.Stats.InFrontier,
		MaxQueue:        r.Stats.MaxQueue,
		Duration:        r.Stats.Duration,
		PrepareDuration: r.Stats.PrepareDuration,
		ElemAllocated:   r.Stats.ElemAllocated,
		ElemReused:      r.Stats.ElemReused,
		KeyTableEntries: r.Stats.KeyTableEntries,
		KeyTableLoad:    r.Stats.KeyTableLoad,
		Parallelism:     r.Stats.Parallelism,
		Steals:          r.Stats.Steals,
		Speculative:     r.Stats.Speculative,
		Degraded:        r.Stats.Degraded,
		AbortReason:     r.Stats.Aborted,
	}
}
