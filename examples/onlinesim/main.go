// Online scheduling vs the offline optimum: the paper's stated purpose
// for computing optimal co-schedules is to give runtime schedulers a
// performance target (§I — "knowing the gap between current and optimal
// performance"). This example simulates a stream of arriving jobs under
// four online placement policies and reports each policy's mean
// turnaround, alongside the contention floor an offline OA* schedule of
// the same batch achieves.
//
// This example uses internal packages directly (it lives inside the
// module); external users would drive the same comparison through the
// public cosched API plus their own arrival traces.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"cosched/internal/astar"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
	"cosched/internal/online"
	"cosched/internal/sim"
	"cosched/internal/telemetry"
	"cosched/internal/workload"
)

func main() {
	traceFile := flag.String("trace", "", "write each policy run's JSONL event trace to this file")
	faults := flag.Bool("faults", false, "inject a seeded fault plan: a machine crash-and-restore, transient placement failures with backoff, and a perturbed degradation oracle")
	faultSeed := flag.Int64("faultseed", 1, "seed for the -faults plan (reproducible runs)")
	flag.Parse()
	const nJobs = 16
	m := cache.QuadCore
	in, err := workload.SyntheticSerialInstance(nJobs, &m, 7)
	if err != nil {
		log.Fatal(err)
	}
	c := in.Cost(degradation.ModePC)
	machines := nJobs / m.Cores

	// Jobs arrive every 5 seconds.
	arrivals := make([]online.Arrival, nJobs)
	for i := range arrivals {
		arrivals[i] = online.Arrival{Job: job.JobID(i), Time: float64(i) * 5}
	}

	// -trace captures every policy run's event stream into one file;
	// the runs stay separable by their solve ids (coschedtrace splits
	// them).
	var sink telemetry.EventSink
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close() //nolint:errcheck
		sink = telemetry.NewEventWriter(f)
	}

	// The fault plan is built once and replayed identically for every
	// policy, so their rows stay comparable. The horizon approximates
	// the fault-free makespan (last arrival plus a few service times).
	var plan *online.FaultPlan
	if *faults {
		plan = online.RandomFaultPlan(*faultSeed, machines, float64(nJobs)*5+40)
		fmt.Printf("fault plan (seed %d): %d machine crashes, %.0f%% transient placement failures, ±%.0f%% oracle noise\n",
			*faultSeed, len(plan.Machines), 100*plan.PlaceFailureProb, 100*plan.OracleNoise)
	}

	fmt.Printf("%d jobs arriving every 5s onto %d quad-core machines\n\n", nJobs, machines)
	fmt.Printf("%-18s %-16s %s\n", "policy", "mean turnaround", "makespan")
	policies := []online.Policy{
		online.FirstFit{},
		online.Spread{},
		online.ContentionAware{},
		online.Random{Rng: rand.New(rand.NewSource(1))},
	}
	for _, p := range policies {
		var obs online.Observer
		if sink != nil {
			obs.Trace = telemetry.NewEmitter(sink) // one solve id per run
		}
		res, err := online.SimulateWithFaults(c, in.SoloTime, machines, arrivals, p, obs, plan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %-16.1f %.1f\n", res.Policy, res.MeanTurnaround, res.Makespan)
	}

	// The offline target: OA* sees the whole batch at once; its
	// execution gives the contention floor online policies chase.
	g := graph.New(c, in.Patterns)
	s, err := astar.NewSolver(g, astar.Options{H: astar.HPerProc, UseIncumbent: true})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := s.Solve()
	if err != nil {
		log.Fatal(err)
	}
	exec, err := sim.Run(c, sim.SoloTimeFunc(in.SoloTime), opt.Groups)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noffline OA* target: all jobs co-run at the optimal placement would finish\n")
	fmt.Printf("within %.1fs of their start (mean %.1fs) — total contention cost %.1f CPU-seconds\n",
		exec.Makespan, exec.MeanJobFinish(), exec.TotalSlowdownSeconds)
}
