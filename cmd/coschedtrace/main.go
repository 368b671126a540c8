// Command coschedtrace analyses the JSONL event traces written by
// coschedcli -trace, experiments -trace, onlinesim -trace or any
// telemetry.EventWriter. A trace file may hold many solves; every
// subcommand splits it by solve id first.
//
// Usage:
//
//	coschedtrace summary trace.jsonl            per-solve accounting
//	coschedtrace timeline trace.jsonl           ASCII g/h and frontier charts
//	coschedtrace scaling trace.jsonl            worker-pool autoscale timeline
//	coschedtrace cache trace.jsonl              solution-cache replay/store/evict timeline
//	coschedtrace requests trace.jsonl           HTTP request table (coschedd traces)
//	coschedtrace fleet trace.jsonl              fleet-client attempt/breaker chronology
//	coschedtrace diff before.jsonl after.jsonl  counter/phase deltas
//	coschedtrace check trace.jsonl...           replay the trace invariants
//
// summary and timeline accept -solve <id> to select one solve. scaling
// reads the whole stream (scale events belong to the daemon, not a
// solve) and renders the pool-size history coschedd's autoscaler
// recorded — pipe /debug/trace into it. cache reads the whole stream
// the same way and renders the solution-cache history coschedd recorded:
// the boot replay from -cache-dir, stores, and bound-driven evictions,
// each with the cache's resident bytes. requests renders every HTTP
// request the daemon recorded as the table /debug/requests serves live:
// request ID, phase breakdown, cache outcome, parallelism, request-key
// prefix and the solve_id to feed back into `timeline -solve`; -slow N
// marks requests that took at least N ms. fleet renders a coschedclient trace
// (coschedload -client-trace) as a chronology of per-attempt calls,
// per-request summaries and circuit-breaker transitions — the req_id
// column joins each attempt to the replica access log that served it.
// diff pairs the files' solves in
// order and exits non-zero when any pair reached different solution
// costs. check exits non-zero when any invariant fails, naming each
// violated invariant. A file argument of "-" reads the trace from
// stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cosched/internal/tracetool"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := args[0], args[1:]
	var err error
	switch cmd {
	case "summary":
		err = perSolve(args, tracetool.WriteSummary)
	case "timeline":
		err = perSolve(args, tracetool.WriteTimeline)
	case "scaling":
		err = runScaling(args)
	case "cache":
		err = runCache(args)
	case "requests":
		err = runRequests(args)
	case "fleet":
		err = runFleet(args)
	case "diff":
		err = runDiff(args)
	case "check":
		err = runCheck(args)
	default:
		fmt.Fprintf(os.Stderr, "coschedtrace: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coschedtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: coschedtrace <command> [flags] <trace.jsonl>...

commands:
  summary   per-solve expansion/dismissal accounting, phases, depth profile
  timeline  ASCII charts: popped g/h vs pop, frontier vs pop
  scaling   coschedd worker-pool autoscale timeline from scale events
  cache     coschedd solution-cache timeline: boot replay, stores, evictions, bytes
  requests  coschedd HTTP request table: id, phases, cache, solve_id join key
  fleet     coschedclient attempt/request/breaker chronology (req_id join key)
  diff      compare two traces' solves counter by counter (exit 1 on cost mismatch)
  check     replay each solve against the producer's trace invariants

flags (summary, timeline):
  -solve N  only the solve with this id

flags (requests):
  -slow N   mark requests that took at least N ms with *
`)
}

// loadFile reads and splits one trace file; "-" reads stdin (so a
// /debug/trace response can be piped straight in).
func loadFile(path string) ([]*tracetool.Trace, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close() //nolint:errcheck
		r = f
	}
	traces, err := tracetool.Load(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return traces, nil
}

// perSolve runs a renderer over every (or the selected) solve of one
// trace file.
func perSolve(args []string, render func(w io.Writer, tr *tracetool.Trace) error) error {
	fs := flag.NewFlagSet("coschedtrace", flag.ExitOnError)
	solveID := fs.Uint64("solve", 0, "only the solve with this id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want one trace file, got %d", fs.NArg())
	}
	traces, err := loadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	matched := false
	for _, tr := range traces {
		if *solveID != 0 && tr.ID != *solveID {
			continue
		}
		matched = true
		if err := render(os.Stdout, tr); err != nil {
			return err
		}
		fmt.Println()
	}
	if !matched {
		return fmt.Errorf("%s: no solve matched", fs.Arg(0))
	}
	return nil
}

func runDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff wants exactly two trace files, got %d", len(args))
	}
	as, err := loadFile(args[0])
	if err != nil {
		return err
	}
	bs, err := loadFile(args[1])
	if err != nil {
		return err
	}
	n := min(len(as), len(bs))
	if len(as) != len(bs) {
		fmt.Fprintf(os.Stderr, "coschedtrace: %s has %d solves, %s has %d; comparing the first %d\n",
			args[0], len(as), args[1], len(bs), n)
	}
	mismatch := false
	for i := 0; i < n; i++ {
		rep := tracetool.Diff(as[i], bs[i])
		if err := tracetool.WriteDiff(os.Stdout, as[i], bs[i], rep); err != nil {
			return err
		}
		fmt.Println()
		mismatch = mismatch || rep.CostMismatch
	}
	if mismatch {
		return fmt.Errorf("solution costs differ")
	}
	return nil
}

func runCheck(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("check wants at least one trace file")
	}
	failures := 0
	for _, path := range args {
		traces, err := loadFile(path)
		if err != nil {
			return err
		}
		for _, tr := range traces {
			vs := tracetool.Check(tr)
			tag := "ok"
			if tr.Truncated {
				tag = "ok (truncated)"
			}
			if len(vs) > 0 {
				tag = "FAIL"
				failures += len(vs)
			}
			fmt.Printf("%s: solve %d (%s, %d events): %s\n", path, tr.ID, methodOr(tr), len(tr.Events), tag)
			for _, v := range vs {
				fmt.Printf("  %s\n", v)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d invariant violation(s)", failures)
	}
	return nil
}

// runScaling renders the autoscale timeline of one trace file (scale
// events are daemon-global, so the whole stream feeds one timeline).
func runScaling(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("scaling wants one trace file, got %d", len(args))
	}
	traces, err := loadFile(args[0])
	if err != nil {
		return err
	}
	return tracetool.WriteScaling(os.Stdout, traces)
}

// runCache renders the solution-cache timeline of one trace file
// (cache events are daemon-global, like scale events: the whole stream
// feeds one timeline).
func runCache(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cache wants one trace file, got %d", len(args))
	}
	traces, err := loadFile(args[0])
	if err != nil {
		return err
	}
	return tracetool.WriteCache(os.Stdout, traces)
}

// runRequests renders a daemon trace's HTTP request table (request
// events are daemon-global: served ones file under their solve, and
// rejections under the ambient trace — the renderer walks both).
func runRequests(args []string) error {
	fs := flag.NewFlagSet("coschedtrace requests", flag.ExitOnError)
	slowMS := fs.Float64("slow", 0, "mark requests that took at least this many ms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("requests wants one trace file, got %d", fs.NArg())
	}
	traces, err := loadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	return tracetool.WriteRequests(os.Stdout, traces, *slowMS)
}

// runFleet renders a fleet-client trace's attempt/request/breaker
// chronology (client events are daemon-less: they all file under the
// ambient trace, and the renderer walks every trace regardless).
func runFleet(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("fleet wants one trace file, got %d", len(args))
	}
	traces, err := loadFile(args[0])
	if err != nil {
		return err
	}
	return tracetool.WriteFleet(os.Stdout, traces)
}

func methodOr(tr *tracetool.Trace) string {
	if m := tr.Method(); m != "" {
		return m
	}
	return "unknown"
}
