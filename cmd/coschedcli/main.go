// Command coschedcli schedules a batch of benchmark jobs onto multicore
// machines with any of the methods of the ICPP'15 co-scheduling paper.
//
// Usage:
//
//	coschedcli -machine quad -method oastar -serial BT,CG,EP,FT
//	coschedcli -machine 8core -method hastar -serial BT,CG -pc MG-Par:4,LU-Par:4
//	coschedcli -machine quad -method ip -synthetic 12 -seed 7
//	coschedcli -list
//
// The tool prints the schedule, the per-job degradations and the solver
// statistics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cosched"
	"cosched/internal/telemetry"
)

// flightRecorderSize is the in-memory event window kept for post-hoc
// dumps (SIGQUIT and /debug/trace). Emitting into the ring is
// allocation-free, so the recorder is always on.
const flightRecorderSize = 4096

func main() {
	var (
		machineFlag = flag.String("machine", "quad", "machine class: dual, quad, 8core")
		methodFlag  = flag.String("method", "oastar", "method: oastar, hastar, ip, osvp, pg, brute")
		serialFlag  = flag.String("serial", "", "comma-separated serial benchmark names")
		peFlag      = flag.String("pe", "", "PE jobs as name:procs, comma-separated")
		pcFlag      = flag.String("pc", "", "PC (MPI) jobs as name:procs, comma-separated")
		specFile    = flag.String("specfile", "", "JSON workload description (see cosched.SpecFile)")
		synthetic   = flag.Int("synthetic", 0, "add N synthetic serial jobs instead of named ones")
		seed        = flag.Int64("seed", 1, "seed for synthetic jobs")
		accounting  = flag.String("accounting", "pc", "objective accounting: se, pe, pc")
		ipConfig    = flag.String("ipconfig", "", "IP branch-and-bound preset name")
		deadline    = flag.Duration("deadline", 0, "hard wall-clock deadline enforced through context cancellation; a breached solve returns its best incumbent flagged DEGRADED")
		robust      = flag.Bool("robust", false, "walk the OA* → HA* → beam → PG fallback ladder (splitting -deadline across rungs) instead of a single -method")
		memBudget   = flag.Int64("membudget", 0, "graph-search memory budget in bytes (0 = unbounded); on breach the best incumbent is returned")
		parallel    = flag.Int("parallel", 0, "graph-search expansion workers: 0 = all cores, 1 = exact sequential path, >1 = parallel engine on eligible configurations")
		verbose     = flag.Bool("verbose", false, "also print solver allocation statistics (element pool, dismissal table)")
		traceFile   = flag.String("trace", "", "write the solver's JSONL event trace to this file")
		progress    = flag.Bool("progress", false, "print rate-limited progress lines during long solves")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/vars (solver metrics) and /debug/pprof on this address, e.g. localhost:6060")
		simulate    = flag.Bool("simulate", false, "execute the schedule and print wall-clock outcomes")
		dotFile     = flag.String("dot", "", "write the co-scheduling graph (with the schedule highlighted) as Graphviz DOT to this file")
		list        = flag.Bool("list", false, "list the benchmark catalogue and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("serial programs:", strings.Join(cosched.SerialPrograms(), ", "))
		fmt.Println("PE programs:    ", strings.Join(cosched.PEPrograms(), ", "))
		fmt.Println("PC programs:    ", strings.Join(cosched.PCPrograms(), ", "))
		return
	}

	machine, err := parseMachine(*machineFlag)
	check(err)
	method, err := parseMethod(*methodFlag)
	check(err)
	acct, err := parseAccounting(*accounting)
	check(err)

	var inst *cosched.Instance
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		check(err)
		inst, err = cosched.ParseSpec(data)
		check(err)
	} else if *synthetic > 0 {
		inst, err = cosched.SyntheticSerial(*synthetic, machine, *seed)
		check(err)
	} else {
		w := cosched.NewWorkload()
		for _, name := range splitList(*serialFlag) {
			w.AddSerial(name)
		}
		for _, spec := range splitList(*peFlag) {
			name, procs, err := parseJobSpec(spec)
			check(err)
			w.AddPE(name, procs)
		}
		for _, spec := range splitList(*pcFlag) {
			name, procs, err := parseJobSpec(spec)
			check(err)
			w.AddPC(name, procs)
		}
		inst, err = w.Build(machine)
		check(err)
	}

	opts := cosched.Options{
		Method:       method,
		Accounting:   acct,
		IPConfig:     *ipConfig,
		MemoryBudget: *memBudget,
		Parallelism:  *parallel,
	}
	// The flight recorder is always on: SIGQUIT dumps the last events to
	// stderr even when no trace file or debug endpoint was configured.
	recorder := telemetry.NewFlightRecorder(flightRecorderSize)
	opts.EventSink = recorder
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGQUIT)
	go func() {
		for range sigc {
			fmt.Fprintf(os.Stderr, "coschedcli: SIGQUIT — dumping last %d trace events\n", recorder.Len())
			recorder.Dump(os.Stderr) //nolint:errcheck
		}
	}()
	if *debugAddr != "" {
		opts.Metrics = telemetry.Default
		telemetry.PublishExpvar("cosched", telemetry.Default)
		addr, closeDebug, err := telemetry.ServeDebugWith(*debugAddr, telemetry.Default, recorder)
		check(err)
		defer closeDebug() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/vars (pprof under /debug/pprof/, Prometheus under /metrics, recent events under /debug/trace)\n", addr)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		check(err)
		defer f.Close() //nolint:errcheck
		opts.EventTraceWriter = f
	}
	if *progress {
		opts.ProgressWriter = os.Stderr
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	start := time.Now()
	var sched *cosched.Schedule
	if *robust {
		sched, err = cosched.SolveRobust(ctx, inst, opts)
	} else {
		sched, err = cosched.SolveContext(ctx, inst, opts)
	}
	check(err)

	methodName := method.String()
	if *robust {
		methodName = "robust ladder"
	}
	fmt.Printf("method %s on %s (%d processes, %d machines)\n",
		methodName, machine, inst.NumProcesses(), inst.NumMachines())
	if sched.Stats.Degraded {
		fmt.Printf("DEGRADED(%s): budget breached — best incumbent below, not a proven answer\n",
			sched.Stats.AbortReason)
	}
	if len(sched.Stats.Fallbacks) > 0 {
		rungs := make([]string, len(sched.Stats.Fallbacks))
		for i, fb := range sched.Stats.Fallbacks {
			state := "ok"
			switch {
			case fb.Err != "":
				state = "error"
			case fb.Degraded:
				state = fmt.Sprintf("degraded:%s", fb.Aborted)
			}
			rungs[i] = fmt.Sprintf("%s(%s)", fb.Method, state)
		}
		fmt.Printf("fallback ladder: %s\n", strings.Join(rungs, " → "))
	}
	fmt.Print(sched)
	fmt.Printf("solve time: %v", time.Since(start).Round(time.Microsecond))
	if sched.Stats.VisitedPaths > 0 {
		fmt.Printf(", visited paths: %d", sched.Stats.VisitedPaths)
	}
	if sched.Stats.BBNodes > 0 {
		fmt.Printf(", branch-and-bound nodes: %d", sched.Stats.BBNodes)
	}
	fmt.Println()
	if *verbose {
		st := sched.Stats
		if len(st.Phases) > 0 {
			parts := make([]string, len(st.Phases))
			for i, ph := range st.Phases {
				parts[i] = fmt.Sprintf("%s %v", ph.Name, ph.Duration.Round(time.Microsecond))
			}
			fmt.Printf("phase breakdown: %s\n", strings.Join(parts, ", "))
		}
		if st.Generated > 0 {
			fmt.Printf("search breakdown: %d generated = %d expanded + %d superseded + %d beam-trimmed + %d left in frontier\n",
				st.Generated, st.Expanded, st.Dismissed, st.BeamTrimmed, st.InFrontier)
			fmt.Printf("dismissed before admission: %d worse-key, %d pruned, %d condensed away; peak frontier %d\n",
				st.DismissedWorse, st.Pruned, st.Condensed, st.MaxQueue)
		}
		if st.BBNodes > 0 {
			fmt.Printf("branch-and-bound: %d LP pivots, %d incumbent improvements\n",
				st.LPIters, st.BoundImprovements)
		}
		if st.Parallelism > 1 {
			fmt.Printf("parallel search: %d workers, %d steals, %d speculative expansions, %d park transitions\n",
				st.Parallelism, st.Steals, st.Speculative, st.Parked)
		}
		if st.ElemAllocated+st.ElemReused > 0 {
			reusePct := 100 * float64(st.ElemReused) / float64(st.ElemAllocated+st.ElemReused)
			fmt.Printf("allocation stats: %d elements allocated, %d reused (%.1f%% pool hit rate)\n",
				st.ElemAllocated, st.ElemReused, reusePct)
			fmt.Printf("dismissal table: %d distinct keys, %.1f%% slot occupancy\n",
				st.KeyTableEntries, 100*st.KeyTableLoad)
		}
	}

	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		check(err)
		err = inst.WriteGraphDOT(f, sched, 0)
		check(f.Close())
		check(err)
		fmt.Printf("co-scheduling graph written to %s\n", *dotFile)
	}

	if *simulate {
		exec, err := sched.Simulate()
		check(err)
		fmt.Printf("\nsimulated execution: makespan %.1fs, mean job finish %.1fs, %.1f CPU-seconds lost to contention\n",
			exec.Makespan, exec.MeanJobFinish, exec.SlowdownSeconds)
		for mi, busy := range exec.MachineBusy {
			fmt.Printf("  machine %d busy %.1fs\n", mi, busy)
		}
	}
}

func parseMachine(s string) (cosched.MachineKind, error) {
	return cosched.ParseMachineKind(s)
}

func parseMethod(s string) (cosched.Method, error) {
	return cosched.ParseMethod(s)
}

func parseAccounting(s string) (cosched.Accounting, error) {
	return cosched.ParseAccounting(s)
}

func parseJobSpec(s string) (string, int, error) {
	name, procsStr, ok := strings.Cut(s, ":")
	if !ok {
		return "", 0, fmt.Errorf("job spec %q: want name:procs", s)
	}
	procs, err := strconv.Atoi(procsStr)
	if err != nil || procs < 1 {
		return "", 0, fmt.Errorf("job spec %q: bad process count", s)
	}
	return name, procs, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "coschedcli:", err)
		os.Exit(1)
	}
}
