// Package tracetool analyses the JSONL event traces the solvers emit
// (internal/telemetry's Event schema): it splits multi-solve streams by
// solve id, replays each solve against the search invariants the paper's
// algorithms guarantee, renders per-solve summaries and ASCII timelines,
// and diffs two traces counter by counter. cmd/coschedtrace is the CLI
// front end.
package tracetool

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"cosched/internal/telemetry"
)

// Trace is one solve's event stream, in emission order.
type Trace struct {
	// ID is the solve id every event carries (zero for traces written
	// by producers predating the solve_id field).
	ID uint64
	// Events are the solve's events in stream order.
	Events []telemetry.Event
	// Truncated reports an incomplete view of the solve: the stream
	// ended mid-line (crashed or killed producer) or started mid-solve
	// (a flight-recorder tail window). Stats- and solution-dependent
	// invariants are skipped for truncated traces.
	Truncated bool
}

// Split groups a mixed event stream into per-solve traces, in order of
// each solve's first appearance. Events without a solve id (legacy
// traces) form one trace with ID 0. A solve with no solve_start whose
// first pop index is past 1 is a tail window (a flight-recorder dump or
// /debug/trace snapshot whose head rotated out of the ring) and is
// marked Truncated.
func Split(events []telemetry.Event) []*Trace {
	var out []*Trace
	byID := map[uint64]*Trace{}
	for _, ev := range events {
		tr := byID[ev.SolveID]
		if tr == nil {
			tr = &Trace{ID: ev.SolveID}
			byID[ev.SolveID] = tr
			out = append(out, tr)
		}
		tr.Events = append(tr.Events, ev)
	}
	for _, tr := range out {
		if tr.start() == nil && tr.headTruncated() {
			tr.Truncated = true
		}
	}
	return out
}

// headTruncated reports that the stream clearly started mid-solve: the
// first pop-carrying event is past pop 1. A corrupt trace that merely
// lost its solve_start line still begins at pop 1, so it keeps failing
// the missing-solve-start invariant.
func (t *Trace) headTruncated() bool {
	for i := range t.Events {
		if p := t.Events[i].Pop; p > 0 {
			return p > 1
		}
	}
	return false
}

// Load reads a JSONL trace stream and splits it into solves. A torn
// trailing line (producer killed mid-write) is tolerated: the parsed
// prefix is returned with every solve marked Truncated. Any other parse
// failure is an error.
func Load(r io.Reader) ([]*Trace, error) {
	events, err := telemetry.ReadEvents(r)
	truncated := false
	if err != nil {
		if _, ok := telemetry.AsTraceError(err); !ok || len(events) == 0 {
			return nil, err
		}
		truncated = true
	}
	traces := Split(events)
	if truncated {
		for _, tr := range traces {
			tr.Truncated = true
		}
	}
	return traces, nil
}

// start returns the solve_start event, or nil.
func (t *Trace) start() *telemetry.Event {
	for i := range t.Events {
		if t.Events[i].Ev == "solve_start" {
			return &t.Events[i]
		}
	}
	return nil
}

// stats returns the final stats event, or nil.
func (t *Trace) stats() *telemetry.Event {
	for i := len(t.Events) - 1; i >= 0; i-- {
		if t.Events[i].Ev == "stats" {
			return &t.Events[i]
		}
	}
	return nil
}

// solution returns the solution event, or nil.
func (t *Trace) solution() *telemetry.Event {
	for i := len(t.Events) - 1; i >= 0; i-- {
		if t.Events[i].Ev == "solution" {
			return &t.Events[i]
		}
	}
	return nil
}

// Method returns the solve_start method label ("OA*", "O-SVP", "HA*",
// "beam", "PG", "brute-force", "ip:<config>", "online:<policy>"), or ""
// for headless traces.
func (t *Trace) Method() string {
	if st := t.start(); st != nil {
		return st.Method
	}
	return ""
}

// kind classifies the producer family from the method label.
func (t *Trace) kind() string {
	m := t.Method()
	switch {
	case strings.HasPrefix(m, "ip:"):
		return "ip"
	case strings.HasPrefix(m, "online:"):
		return "online"
	default:
		return "search"
	}
}

// phases extracts the completed span breakdown (name, duration ms) in
// completion order from span_end events.
func (t *Trace) phases() []phase {
	var out []phase
	for _, ev := range t.Events {
		if ev.Ev == "span_end" {
			out = append(out, phase{ev.Span, ev.DurMS})
		}
	}
	return out
}

type phase struct {
	name  string
	durMS float64
}

// counters collects the named per-solve counters used by summaries and
// diffs: the stats-event accounting plus event-stream tallies.
func (t *Trace) counters() ([]string, map[string]float64) {
	c := map[string]float64{}
	order := []string{}
	add := func(name string, v float64) {
		if _, dup := c[name]; !dup {
			order = append(order, name)
		}
		c[name] += v
	}
	if st := t.stats(); st != nil {
		for _, f := range []struct {
			name string
			v    int64
		}{
			{"visited", st.Visited}, {"expanded", st.Expanded},
			{"generated", st.Generated}, {"dismissed_stale", st.DismissedStale},
			{"dismissed_worse", st.DismissedWorse}, {"pruned", st.Pruned},
			{"beam_trimmed", st.BeamTrimmed}, {"in_frontier", st.InFrontier},
			{"condensed", st.Condensed}, {"bb_nodes", st.Nodes},
			{"lp_iters", st.LPIters},
		} {
			if f.v != 0 {
				add(f.name, float64(f.v))
			}
		}
	}
	var events, incumbents, placements float64
	for _, ev := range t.Events {
		events++
		switch ev.Ev {
		case "incumbent":
			incumbents++
		case "place":
			placements++
		}
	}
	add("events", events)
	if incumbents > 0 {
		add("incumbents", incumbents)
	}
	if placements > 0 {
		add("placements", placements)
	}
	if sol := t.solution(); sol != nil {
		add("cost", sol.Cost)
	}
	return order, c
}

// depthProfile tallies expansions per depth from the expand events.
func (t *Trace) depthProfile() ([]int, []int64) {
	byDepth := map[int]int64{}
	for _, ev := range t.Events {
		if ev.Ev == "expand" {
			byDepth[ev.Depth]++
		}
	}
	depths := make([]int, 0, len(byDepth))
	for d := range byDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	counts := make([]int64, len(depths))
	for i, d := range depths {
		counts[i] = byDepth[d]
	}
	return depths, counts
}

// popsPerSec estimates the pop rate from the stats-event visited count
// over the trace's t_ms window; 0 when not derivable.
func (t *Trace) popsPerSec() float64 {
	st := t.stats()
	if st == nil || st.Visited == 0 || len(t.Events) < 2 {
		return 0
	}
	span := t.Events[len(t.Events)-1].TMS - t.Events[0].TMS
	if span <= 0 {
		return 0
	}
	return float64(st.Visited) / (span / 1000)
}

// label renders the trace's identity for report headers.
func (t *Trace) label() string {
	m := t.Method()
	if m == "" {
		m = "unknown"
	}
	if st := t.start(); st != nil && st.N > 0 {
		return fmt.Sprintf("solve %d: %s n=%d", t.ID, m, st.N)
	}
	return fmt.Sprintf("solve %d: %s", t.ID, m)
}

// fmtCount renders a counter value: integers plainly, costs with
// precision.
func fmtCount(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6f", v)
}
