package cosched

import (
	"context"
	"time"
)

// robustRung is one level of the SolveRobust fallback ladder.
type robustRung struct {
	name    string
	prepare func(opts *Options)
}

// The ladder, strongest answer first: exact OA*, near-optimal HA*, a
// strictly work-bounded beam search, and finally PG — a one-pass greedy
// that always answers, whatever is left of the deadline.
var robustRungs = []robustRung{
	{"OA*", func(o *Options) {
		o.Method = MethodOAStar
		o.BeamWidth, o.HWeight = 0, 0
	}},
	{"HA*", func(o *Options) {
		o.Method = MethodHAStar
		o.BeamWidth, o.HWeight = 0, 0
	}},
	{"beam", func(o *Options) {
		o.Method = MethodHAStar
		if o.BeamWidth == 0 {
			o.BeamWidth = 8
		}
		if o.HWeight == 0 {
			o.HWeight = 1.2
		}
		o.HStrategy = 3 // the scalable per-process bound
	}},
	{"PG", func(o *Options) {
		o.Method = MethodPG
	}},
}

// SolveRobust schedules the instance under a hard deadline by walking a
// fallback ladder — OA*, then HA*, then a bounded beam search, then PG —
// splitting the context's remaining time evenly across the rungs still
// ahead. The first rung that completes without degrading answers; if
// every rung degrades, the cheapest feasible degraded schedule wins. A
// rung that aborts on its MemoryBudget is retried once on the same rung
// with the budget halved before the ladder moves on. PG runs in
// microseconds whatever the deadline, so SolveRobust returns a usable
// schedule even under an already-expired context.
//
// Stats.Fallbacks on the returned schedule records every attempt in
// order; Stats.Degraded/AbortReason describe the answering attempt. The
// Method, BeamWidth and HWeight fields of opts are managed by the ladder
// (Method is ignored; BeamWidth/HWeight seed the beam rung); everything
// else — accounting, tracing, metrics, MemoryBudget, MaxExpansions —
// applies to every rung.
func SolveRobust(ctx context.Context, inst *Instance, opts Options) (*Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	deadline, hasDeadline := ctx.Deadline()

	var (
		attempts  []Fallback
		best      *Schedule
		lastErr   error
		userBeam  = opts.BeamWidth
		userHW    = opts.HWeight
		memBudget = opts.MemoryBudget
	)
	for i, rung := range robustRungs {
		ropts := opts
		ropts.BeamWidth, ropts.HWeight = userBeam, userHW
		ropts.MemoryBudget = memBudget
		rung.prepare(&ropts)

		// Split what remains of the deadline evenly over this rung and
		// the ones still below it, so a rung that stalls cannot starve
		// its fallbacks. A rung whose share has already expired is
		// skipped outright: running it on the parent context would hand
		// it everything the rungs below were promised (and solver
		// preparation runs before the first context poll, so even an
		// expired context cannot stop it promptly). The final PG rung
		// always runs — it answers in microseconds whatever is left.
		rungCtx, cancel := ctx, context.CancelFunc(func() {})
		if hasDeadline {
			share := time.Until(deadline) / time.Duration(len(robustRungs)-i)
			if share <= 0 && i < len(robustRungs)-1 {
				attempts = append(attempts, Fallback{Method: ropts.Method, Err: errRungSkipped})
				continue
			}
			if share > 0 {
				rungCtx, cancel = context.WithTimeout(ctx, share)
			}
		}

		sched, err := SolveContext(rungCtx, inst, ropts)
		// A memory-budget abort means the instance does not fit this
		// rung's frontier: retry the rung once at half budget — a much
		// shallower search that may still beat the next rung down. Only
		// retry while the rung context still has usable time: a slow
		// first attempt can exhaust it, and a retry on a spent context
		// just records a second degraded attempt without searching.
		if err == nil && sched.Stats.AbortReason == AbortMemory && ropts.MemoryBudget > 1 && rungHasTime(rungCtx) {
			attempts = append(attempts, fallbackRecord(ropts.Method, sched, nil))
			ropts.MemoryBudget /= 2
			sched, err = SolveContext(rungCtx, inst, ropts)
		}
		cancel()

		attempts = append(attempts, fallbackRecord(ropts.Method, sched, err))
		if err != nil {
			lastErr = err
			continue
		}
		if !sched.Stats.Degraded {
			sched.Stats.Fallbacks = attempts
			return sched, nil
		}
		if best == nil || sched.TotalDegradation < best.TotalDegradation {
			best = sched
		}
	}
	if best == nil {
		return nil, lastErr
	}
	best.Stats.Fallbacks = attempts
	return best, nil
}

// errRungSkipped is the Fallback.Err text recorded for a rung the ladder
// never started because its deadline share had already expired.
const errRungSkipped = "skipped: deadline share exhausted before the rung started"

// rungHasTime reports whether a rung context can still host a useful
// retry: not cancelled, and its deadline (if any) not yet reached.
func rungHasTime(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	if d, ok := ctx.Deadline(); ok && time.Until(d) <= 0 {
		return false
	}
	return true
}

// fallbackRecord condenses one ladder attempt into its Stats.Fallbacks
// entry.
func fallbackRecord(m Method, sched *Schedule, err error) Fallback {
	f := Fallback{Method: m}
	if err != nil {
		f.Err = err.Error()
		return f
	}
	f.Degraded = sched.Stats.Degraded
	f.Aborted = sched.Stats.AbortReason
	f.Duration = sched.Stats.Duration
	return f
}
