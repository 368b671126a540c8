// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment is registered under the paper's label
// ("table1".."table4", "fig5".."fig13") and produces a Report whose rows
// mirror the published table/series; EXPERIMENTS.md records paper-vs-
// measured for each. Run them through cmd/experiments or the root
// bench_test.go harness.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"cosched/internal/telemetry"
)

// RunOptions scales an experiment run.
type RunOptions struct {
	// Quick shrinks graph counts and sweep ranges so the experiment
	// finishes in benchmark-friendly time; the full configuration
	// matches the paper as closely as feasibility allows (deviations
	// are printed in the report notes and recorded in EXPERIMENTS.md).
	Quick bool
	// Seed drives all synthetic workload generation.
	Seed int64
	// Verbose adds per-iteration detail rows where applicable.
	Verbose bool
	// Metrics, when non-nil, receives live solver telemetry (the
	// "astar.*" and "ip.*" families of DESIGN.md §6) from the searches
	// and branch-and-bound solves the experiment performs. Intended for
	// cmd/experiments' -debug-addr endpoint; experiments sharing one
	// registry accumulate into the same counters.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives the JSONL event trace of every
	// solve the experiment performs (cmd/experiments' -trace flag).
	// Every solve gets its own solve_id, so one sink may span many
	// experiments; split with coschedtrace.
	Events telemetry.EventSink
	// Parallelism sets the graph searches' expansion-worker count
	// (cmd/experiments -parallel). 0 and 1 run the exact sequential
	// path; ineligible configurations fall back to it silently, so
	// timing columns stay comparable.
	Parallelism int
}

// activeMetrics / activeSink carry the currently running experiment's
// observation hooks; Run installs them so the solve helpers can attach
// telemetry without every runner threading them explicitly. Experiments
// run one at a time per process (cmd/experiments), so plain package
// variables suffice.
var (
	activeMetrics *telemetry.Registry
	activeSink    telemetry.EventSink
	// activeParallelism is RunOptions.Parallelism for the running
	// experiment, applied by the solve helpers to every graph search
	// that does not pick its own worker count.
	activeParallelism int
)

// solveTrace starts the trace of one solve of the running experiment:
// a fresh Emitter on the active sink, or the zero Emitter (tracing off)
// when the experiment runs untraced.
func solveTrace() telemetry.Emitter {
	if activeSink == nil {
		return telemetry.Emitter{}
	}
	return telemetry.NewEmitter(activeSink)
}

// Report is the regenerated table/figure.
type Report struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// JSON renders the report as indented JSON for machine consumption.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Runner regenerates one experiment.
type Runner func(RunOptions) (*Report, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists the registered experiment labels in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return orderKey(ids[i]) < orderKey(ids[j]) })
	return ids
}

func orderKey(id string) string {
	// tables, then figures, then ablations; numeric order within
	var kind string
	var num int
	switch {
	case strings.HasPrefix(id, "table"):
		kind = "a"
		fmt.Sscanf(id, "table%d", &num)
	case strings.HasPrefix(id, "fig"):
		kind = "b"
		fmt.Sscanf(id, "fig%d", &num)
	default:
		return "c" + id
	}
	return fmt.Sprintf("%s%03d", kind, num)
}

// Run regenerates one experiment by label.
func Run(id string, opts RunOptions) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	activeMetrics = opts.Metrics
	activeSink = opts.Events
	activeParallelism = opts.Parallelism
	defer func() { activeMetrics, activeSink, activeParallelism = nil, nil, 0 }()
	rep, err := r(opts)
	if ferr := telemetry.FlushSink(opts.Events); err == nil && ferr != nil {
		return rep, fmt.Errorf("experiments: flushing event trace: %w", ferr)
	}
	return rep, err
}

// fmtSec renders seconds with adaptive precision.
func fmtSec(sec float64) string {
	switch {
	case sec < 0.001:
		return fmt.Sprintf("%.5f", sec)
	case sec < 1:
		return fmt.Sprintf("%.4f", sec)
	default:
		return fmt.Sprintf("%.2f", sec)
	}
}

// fmtDeg renders a degradation value.
func fmtDeg(d float64) string { return fmt.Sprintf("%.4f", d) }
