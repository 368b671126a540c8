package tracetool

import (
	"fmt"
	"math"
	"strings"

	"cosched/internal/telemetry"
)

// Violation is one failed trace invariant.
type Violation struct {
	// Invariant names the violated rule (e.g. "admission-identity",
	// "f-monotone", "dismiss-count").
	Invariant string
	// Detail explains the failure with the offending values.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// costEps is the tolerance for cost comparisons: trace costs round-trip
// through JSON float formatting.
const costEps = 1e-9

// Check replays one solve's trace against the invariants its producer
// guarantees and returns every violation found (nil for a clean trace).
//
// Search traces (OA*, O-SVP, HA*, beam, and the header-and-answer
// traces of PG and brute force):
//
//   - admission-identity: the stats event must reconcile as
//     Generated == Expanded + DismissedStale + BeamTrimmed + InFrontier.
//   - f-monotone (sequential OA* and O-SVP only): popped f = g + h never
//     decreases — the Theorem 2 optimality argument rests on this, and
//     O-SVP's uniform-cost search (h = 0) pops g in order. A parallel
//     solve (solve_start carries parallelism > 1) interleaves its
//     workers' pops, so only total-based rules apply to it: expansion
//     order, per-pop monotonicity and goal-pop bounds are meaningless
//     across racing workers, and the parallel engine never pops its
//     goal at all.
//   - expand-count / dismiss-count: the event stream must carry exactly
//     the expansions and per-reason dismissals the stats event counted.
//   - dismiss-reason: every dismissal names a known reason.
//   - solution-cost: the solution can be no cheaper than the goal pop
//     that produced it allows (an incumbent may beat the popped goal,
//     never the reverse).
//   - solution-groups: the schedule is a partition of processes 1..N
//     with no machine over capacity.
//   - abort-reason (all solver traces): a degraded solve carries at most
//     one abort event, its reason one of deadline|cancel|expansions|
//     memory, and the solution event repeats the reason; a completed
//     solve carries neither. Degraded solves are otherwise held to the
//     same admission identity and partition validity as completed ones —
//     only the solution-cost rule is waived, because a degraded answer
//     is an incumbent or greedy fallback, not the popped goal.
//
// IP traces: incumbent-monotone (bounds only improve) and
// solution-cost (the solution equals the final incumbent).
//
// Online traces: online-causality (arrival before placement before
// completion per job, on a non-decreasing simulated clock) and
// online-completion (every job's chain completes).
//
// Truncated traces (Trace.Truncated) skip the stats- and
// solution-dependent rules: a killed producer is not a broken one.
func Check(tr *Trace) []Violation {
	var vs []Violation
	start := tr.start()
	if start == nil {
		if tr.onlySpans() {
			return nil
		}
		if tr.Truncated {
			// A tail window (flight-recorder dump) lost its solve_start;
			// the reason whitelist is the one rule that needs no header.
			return checkDismissReasons(tr)
		}
		return []Violation{{"missing-solve-start", fmt.Sprintf("solve %d has %d events but no solve_start", tr.ID, len(tr.Events))}}
	}
	switch tr.kind() {
	case "ip":
		vs = append(vs, checkIP(tr)...)
	case "online":
		vs = append(vs, checkOnline(tr, start)...)
	default:
		vs = append(vs, checkSearch(tr, start)...)
	}
	vs = append(vs, checkAbort(tr)...)
	return vs
}

// checkAbort applies the abort-reason rule: a degraded solve emits
// exactly one abort event with a known reason, echoed by the solution
// event; a completed solve emits neither.
func checkAbort(tr *Trace) []Violation {
	var vs []Violation
	var aborts []telemetry.Event
	for i, ev := range tr.Events {
		if ev.Ev != "abort" {
			continue
		}
		switch ev.Reason {
		case "deadline", "cancel", "expansions", "memory":
		default:
			vs = append(vs, Violation{"abort-reason",
				fmt.Sprintf("event %d: unknown abort reason %q", i, ev.Reason)})
		}
		aborts = append(aborts, ev)
	}
	if len(aborts) > 1 {
		vs = append(vs, Violation{"abort-reason",
			fmt.Sprintf("trace carries %d abort events, at most 1 expected", len(aborts))})
	}
	sol := tr.solution()
	if sol == nil {
		return vs
	}
	if len(aborts) == 0 {
		if sol.Reason != "" {
			vs = append(vs, Violation{"abort-reason",
				fmt.Sprintf("solution flagged degraded (%q) but no abort event precedes it", sol.Reason)})
		}
		return vs
	}
	if sol.Reason != aborts[0].Reason {
		vs = append(vs, Violation{"abort-reason",
			fmt.Sprintf("solution reason %q != abort event reason %q", sol.Reason, aborts[0].Reason)})
	}
	return vs
}

// checkDismissReasons applies the dismiss-reason whitelist alone, for
// headless tail windows where no other rule can run.
func checkDismissReasons(tr *Trace) []Violation {
	var vs []Violation
	for i, ev := range tr.Events {
		if ev.Ev != "dismiss" {
			continue
		}
		switch ev.Reason {
		case "stale", "worse", "pruned", "beam_trim":
		default:
			vs = append(vs, Violation{"dismiss-reason",
				fmt.Sprintf("event %d (pop %d): unknown dismiss reason %q", i, ev.Pop, ev.Reason)})
		}
	}
	return vs
}

// onlySpans reports whether the trace carries nothing but ambient
// events — spans (a solve observed through a SpanRecorder alone),
// serving-layer scale, cache and request events, and fleet-client
// events, which belong to no solve (a rejected request never got one)
// and so arrive with solve id 0 and no solve_start header.
func (t *Trace) onlySpans() bool {
	for _, ev := range t.Events {
		switch ev.Ev {
		case "span_start", "span_end", "scale", "cache", "request",
			"client_attempt", "client_request", "client_breaker":
		default:
			return false
		}
	}
	return len(t.Events) > 0
}

func checkSearch(tr *Trace, start *telemetry.Event) []Violation {
	var vs []Violation
	// f-monotone holds for the exact best-first searches, and only with
	// a single expansion worker.
	fMonotone := (start.Method == "OA*" || start.Method == "O-SVP") && start.Parallelism <= 1

	var (
		expandCount   int64
		dismissCounts = map[string]int64{}
		prevF         = math.Inf(-1)
		goalG         = math.NaN()
	)
	for i, ev := range tr.Events {
		switch ev.Ev {
		case "expand":
			expandCount++
			if fMonotone {
				f := ev.G + ev.H
				if f < prevF-costEps {
					vs = append(vs, Violation{"f-monotone",
						fmt.Sprintf("event %d (pop %d): popped f %.9f after %.9f", i, ev.Pop, f, prevF)})
				}
				if f > prevF {
					prevF = f
				}
			}
			if ev.Leader == 0 {
				goalG = ev.G
			}
		case "dismiss":
			switch ev.Reason {
			case "stale", "worse", "pruned", "beam_trim":
				dismissCounts[ev.Reason]++
			default:
				vs = append(vs, Violation{"dismiss-reason",
					fmt.Sprintf("event %d (pop %d): unknown dismiss reason %q", i, ev.Pop, ev.Reason)})
			}
		}
	}

	st := tr.stats()
	if st == nil {
		if !tr.Truncated {
			vs = append(vs, Violation{"missing-stats", "trace has no stats event (and is not truncated)"})
		}
		return vs
	}
	if got := st.Expanded + st.DismissedStale + st.BeamTrimmed + st.InFrontier; got != st.Generated {
		vs = append(vs, Violation{"admission-identity",
			fmt.Sprintf("generated %d != expanded %d + dismissed_stale %d + beam_trimmed %d + in_frontier %d = %d",
				st.Generated, st.Expanded, st.DismissedStale, st.BeamTrimmed, st.InFrontier, got)})
	}
	if expandCount != st.Visited {
		vs = append(vs, Violation{"expand-count",
			fmt.Sprintf("trace has %d expand events, stats counted %d visited paths", expandCount, st.Visited)})
	}
	for _, want := range []struct {
		reason string
		n      int64
	}{
		{"stale", st.DismissedStale}, {"worse", st.DismissedWorse},
		{"pruned", st.Pruned}, {"beam_trim", st.BeamTrimmed},
	} {
		if dismissCounts[want.reason] != want.n {
			vs = append(vs, Violation{"dismiss-count",
				fmt.Sprintf("trace has %d %q dismissals, stats counted %d",
					dismissCounts[want.reason], want.reason, want.n)})
		}
	}

	sol := tr.solution()
	if sol == nil {
		if !tr.Truncated {
			vs = append(vs, Violation{"missing-solution", "trace has no solution event (and is not truncated)"})
		}
		return vs
	}
	// A degraded solution is the best incumbent (possibly a greedy
	// fallback), which no popped goal bounds — the rule only applies to
	// completed solves.
	if !math.IsNaN(goalG) && sol.Reason == "" && sol.Cost > goalG+costEps {
		vs = append(vs, Violation{"solution-cost",
			fmt.Sprintf("solution cost %.9f exceeds the goal pop's g %.9f", sol.Cost, goalG)})
	}
	vs = append(vs, checkGroups(sol.Groups, start.N, start.U)...)
	return vs
}

func checkIP(tr *Trace) []Violation {
	var vs []Violation
	prev := math.Inf(1)
	for i, ev := range tr.Events {
		if ev.Ev != "incumbent" {
			continue
		}
		if ev.Cost > prev+costEps {
			vs = append(vs, Violation{"incumbent-monotone",
				fmt.Sprintf("event %d: incumbent %.9f after %.9f", i, ev.Cost, prev)})
		}
		prev = ev.Cost
	}
	sol := tr.solution()
	if sol == nil {
		if !tr.Truncated {
			vs = append(vs, Violation{"missing-solution", "trace has no solution event (and is not truncated)"})
		}
		return vs
	}
	if !math.IsInf(prev, 1) && math.Abs(sol.Cost-prev) > costEps {
		vs = append(vs, Violation{"solution-cost",
			fmt.Sprintf("solution cost %.9f != final incumbent %.9f", sol.Cost, prev)})
	}
	if st := tr.start(); st != nil && len(sol.Groups) > 0 {
		vs = append(vs, checkGroups(sol.Groups, st.N, st.U)...)
	}
	return vs
}

func checkOnline(tr *Trace, start *telemetry.Event) []Violation {
	var vs []Violation
	type chain struct{ arrived, placed, done bool }
	chains := map[int]*chain{}
	get := func(j int) *chain {
		if chains[j] == nil {
			chains[j] = &chain{}
		}
		return chains[j]
	}
	prevT := math.Inf(-1)
	for i, ev := range tr.Events {
		switch ev.Ev {
		case "arrival":
			get(ev.Job).arrived = true
		case "place":
			ch := get(ev.Job)
			if !ch.arrived {
				vs = append(vs, Violation{"online-causality",
					fmt.Sprintf("event %d: job %d placed before arriving", i, ev.Job)})
			}
			ch.placed = true
		case "job_done":
			ch := get(ev.Job)
			if !ch.placed {
				vs = append(vs, Violation{"online-causality",
					fmt.Sprintf("event %d: job %d finished before being placed", i, ev.Job)})
			}
			ch.done = true
		case "span_start", "span_end", "solve_start", "solution", "stats":
			continue
		}
		if ev.T < prevT-costEps {
			vs = append(vs, Violation{"online-causality",
				fmt.Sprintf("event %d: simulated clock went backwards (%v after %v)", i, ev.T, prevT)})
		}
		if ev.T > prevT {
			prevT = ev.T
		}
	}
	if tr.Truncated {
		return vs
	}
	var incomplete []string
	for j, ch := range chains {
		if !ch.arrived || !ch.placed || !ch.done {
			incomplete = append(incomplete, fmt.Sprintf("%d", j))
		}
	}
	if len(incomplete) > 0 {
		vs = append(vs, Violation{"online-completion",
			fmt.Sprintf("jobs %s have incomplete arrival→place→done chains", strings.Join(incomplete, ","))})
	}
	if start.N > 0 && len(chains) != start.N {
		vs = append(vs, Violation{"online-completion",
			fmt.Sprintf("trace covers %d jobs, solve_start declared %d", len(chains), start.N)})
	}
	if tr.solution() == nil {
		vs = append(vs, Violation{"missing-solution", "trace has no solution event (and is not truncated)"})
	}
	return vs
}

// checkGroups validates a solution partition: every process 1..n exactly
// once, no machine over u cores.
func checkGroups(groups [][]int, n, u int) []Violation {
	if len(groups) == 0 || n == 0 {
		return nil
	}
	var vs []Violation
	seen := make([]int, n+1)
	for mi, g := range groups {
		if u > 0 && len(g) > u {
			vs = append(vs, Violation{"solution-groups",
				fmt.Sprintf("machine %d holds %d processes, capacity %d", mi, len(g), u)})
		}
		for _, p := range g {
			if p < 1 || p > n {
				vs = append(vs, Violation{"solution-groups",
					fmt.Sprintf("machine %d holds process %d outside 1..%d", mi, p, n)})
				continue
			}
			seen[p]++
		}
	}
	for p := 1; p <= n; p++ {
		if seen[p] != 1 {
			vs = append(vs, Violation{"solution-groups",
				fmt.Sprintf("process %d appears %d times in the schedule", p, seen[p])})
		}
	}
	return vs
}
