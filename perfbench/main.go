// Command perfbench is the cosched benchmark: it drives the public API
// from outside — the solver through cosched.SolveContext, the daemon
// through server.New(...).Handler() over loopback HTTP — on three
// workloads, checks every answer, and prints every metric by name with
// its unit and sample count. See METHODOLOGY.md for what each workload
// and metric is for.
//
//	go run . -workload solve-exact -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics with -trace 0,
// the per-layer metrics of a separate traced run with -trace 1. The full
// report (environment block, every sample count, span summary) is also
// written under -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"cosched"
)

// report is one run's outcome.
type report struct {
	attempted, failed int64
	firstErr          error
	invalid           string // non-empty: the measurement itself is not valid
	e2e               []sample
	layer             []sample
	extra             []sample           // printed and written, not in the final JSON line
	counts            map[string]float64 // figures that repeat exactly for one seed
	instances         []int64            // instance seeds the run used
}

func (r *report) correct() bool { return r.failed == 0 && r.invalid == "" }

var workloads = map[string]func(seed int64, seconds float64, tr *tracer) (*report, error){
	"solve-exact": func(seed int64, seconds float64, tr *tracer) (*report, error) {
		sp, err := exactSpec(seed)
		if err != nil {
			return nil, err
		}
		return runSolver(sp, seconds, tr)
	},
	"solve-large": func(seed int64, seconds float64, tr *tracer) (*report, error) {
		return runSolver(largeSpec(seed), seconds, tr)
	},
	"serve-mixed": runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solve-exact, solve-large or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the report, span and summary files")
	refs := fs.Bool("refs", false, "print exact_refs.txt, the brute-force optimum of every solve-exact pool instance, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refs {
		return printRefs(stdout, stderr)
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload solve-exact|solve-large|serve-mixed, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := newEnvironment(*workload, *seed, *seconds, *trace == 1)
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace))

	var rep *report
	var metrics []sample
	var summary []layerSummary
	var err error
	if *trace == 0 {
		rep, err = fn(*seed, *seconds, nil)
		if err == nil {
			metrics = rep.e2e
		}
	} else {
		rep, summary, err = tracedRun(fn, *seed, *seconds, base)
		if err == nil {
			metrics = rep.layer
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.extra = dropThinTails(rep.extra)
	for _, s := range append(append([]sample(nil), metrics...), rep.extra...) {
		env.Samples[s.Name] = s.N
	}
	if err := writeReport(base+".json", env, rep, metrics, summary); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, env, rep, metrics, summary)
	if !rep.correct() {
		if rep.firstErr != nil {
			fmt.Fprintf(stderr, "perfbench: %d of %d answers failed; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
		}
		if rep.invalid != "" {
			fmt.Fprintf(stderr, "perfbench: run invalid: %s\n", rep.invalid)
		}
	}
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, map[string]map[string]any{}}
	for _, s := range metrics {
		final.Metrics[s.Name] = map[string]any{"value": s.Value, "unit": s.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		// A NaN or Inf metric: the run measured nothing for it.
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

// tracedRun measures the workload with spans recorded for every
// operation, and reports the per-layer metrics plus the tracing overhead:
// the time spent recording spans against the traced operations' own
// time. No end-to-end metric is taken from it.
func tracedRun(fn func(int64, float64, *tracer) (*report, error), seed int64, seconds float64, base string) (*report, []layerSummary, error) {
	tr := newTracer()
	rep, err := fn(seed, seconds, tr)
	if err != nil {
		return nil, nil, err
	}
	summary := summarize(tr.spans)
	if err := tr.write(base+".spans.jsonl", base+".summary.json", summary); err != nil {
		return nil, nil, err
	}
	rep.layer = append(rep.layer, tr.overheadPct())
	for _, l := range summary {
		rep.extra = append(rep.extra, sample{Name: "self." + l.Name + "_ms", Value: l.SelfMSMean, Unit: "ms", N: l.Count})
	}
	return rep, summary, nil
}

func printReport(w io.Writer, env environment, rep *report, metrics []sample, summary []layerSummary) {
	envLine, _ := json.Marshal(env) // plain struct, cannot fail
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g trace=%t\n# env %s\n", env.Workload, env.Seed, env.RunSeconds, env.Trace, envLine)
	fmt.Fprintf(w, "# answers: %d attempted, %d failed", rep.attempted, rep.failed)
	if rep.invalid != "" {
		fmt.Fprintf(w, "; INVALID: %s", rep.invalid)
	}
	fmt.Fprintln(w)
	for _, group := range []struct {
		title string
		s     []sample
	}{{"reported", metrics}, {"also measured", rep.extra}} {
		fmt.Fprintf(w, "# %s:\n", group.title)
		for _, s := range group.s {
			line := fmt.Sprintf("%-32s %14.6g %-6s n=%d", s.Name, s.Value, s.Unit, s.N)
			if s.Pct > 0 {
				line += fmt.Sprintf(" beyond=%d", s.Beyond)
				if s.Beyond < minBeyond {
					line += " (fewer than 10 beyond: read as indicative)"
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(summary) > 0 {
		fmt.Fprintf(w, "# layer self time (span minus its children):\n")
		for _, l := range summary {
			fmt.Fprintf(w, "%-32s %10.4f ms mean self  %10.4f ms mean span  n=%d\n", l.Name, l.SelfMSMean, l.DurMSMean, l.Count)
		}
	}
}

func writeReport(path string, env environment, rep *report, metrics []sample, summary []layerSummary) error {
	doc := struct {
		Environment environment    `json:"environment"`
		Correct     bool           `json:"correct"`
		Attempted   int64          `json:"attempted"`
		Failed      int64          `json:"failed"`
		FirstError  string         `json:"first_error,omitempty"`
		Invalid     string         `json:"invalid,omitempty"`
		Metrics     []sample       `json:"metrics"`
		Extra       []sample       `json:"also_measured"`
		Layers      []layerSummary `json:"layers,omitempty"`
	}{env, rep.correct(), rep.attempted, rep.failed, "", rep.invalid, finite(metrics), finite(rep.extra), summary}
	if rep.firstErr != nil {
		doc.FirstError = rep.firstErr.Error()
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// minBeyond is the fewest observations a reported tail percentile must
// have beyond it; with fewer, the "percentile" is a handful of outliers.
const minBeyond = 10

// dropThinTails removes the percentiles with fewer than minBeyond
// observations beyond them.
func dropThinTails(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.Pct == 0 || s.Beyond >= minBeyond {
			out = append(out, s)
		}
	}
	return out
}

// finite replaces NaN and Inf values, which JSON cannot carry, by -1.
func finite(ss []sample) []sample {
	out := append([]sample(nil), ss...)
	for i := range out {
		if math.IsNaN(out[i].Value) || math.IsInf(out[i].Value, 0) {
			out[i].Value = -1
		}
	}
	return out
}

// printRefs brute-forces the solve-exact pool instances 1..exactPool and
// prints exact_refs.txt.
func printRefs(stdout, stderr io.Writer) int {
	fmt.Fprint(stdout, "# Brute-force optimum (total degradation, Eq. 6/13) of SyntheticMixed(16, 6, 2, QuadCore, seed)\n"+
		"# under PC accounting, one \"<seed> <cost>\" line per instance. Regenerate: go run . -refs > exact_refs.txt\n")
	for seed := int64(1); seed <= exactPool; seed++ {
		inst, err := cosched.SyntheticMixed(exactTotal, exactParallel, exactPerJob, cosched.QuadCore, seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		s, err := cosched.SolveContext(context.Background(), inst, cosched.Options{Method: cosched.MethodBruteForce})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%d %.17g\n", seed, s.TotalDegradation)
	}
	return 0
}
