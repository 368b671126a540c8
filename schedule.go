package cosched

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cosched/internal/degradation"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// Stats summarises the solver effort behind a schedule. Graph-search
// fields (everything except the BB*/LP* block) are populated by the
// OA*, HA* and O-SVP methods and zero for IP/PG/brute-force; they
// reconcile by the admission invariant
//
//	Generated == Expanded + Dismissed + BeamTrimmed + InFrontier
//
// (see internal/astar.Stats for the per-field accounting rules).
type Stats struct {
	// VisitedPaths counts popped (expanded) priority-list elements
	// including the root (graph searches), the paper's Table IV metric.
	VisitedPaths int64
	// Expanded counts admitted (non-root) elements that were popped and
	// processed; VisitedPaths minus one on a completed solve.
	Expanded int64
	// Generated counts sub-paths admitted into the priority list (or a
	// beam depth's survivor table).
	Generated int64
	// Dismissed counts admitted sub-paths later superseded by a cheaper
	// same-process-set sub-path (stale pops, beam supersedes).
	Dismissed int64
	// DismissedWorse counts children dismissed before admission because
	// an equal-or-cheaper same-set sub-path was already recorded (the
	// Theorem 1 dismissal).
	DismissedWorse int64
	// Condensed counts candidate nodes skipped by process condensation.
	Condensed int64
	// Pruned counts children discarded against the incumbent bound.
	Pruned int64
	// BeamTrimmed counts sub-paths dropped by the beam's per-depth width
	// cap (large-batch HA* only).
	BeamTrimmed int64
	// InFrontier is the number of admitted sub-paths still awaiting
	// expansion when the solve returned.
	InFrontier int64
	// MaxQueue is the priority list's (or beam frontier's) high-water
	// mark, in elements.
	MaxQueue int
	// BBNodes counts branch-and-bound nodes whose LP relaxation was
	// solved; LPIters the total simplex pivots across relaxations;
	// BoundImprovements the incumbent updates (IP method only).
	BBNodes           int64
	LPIters           int64
	BoundImprovements int64
	// Duration is the solver wall-clock time. PrepareDuration is the
	// one-off heuristic-table precomputation before the search proper
	// (graph searches; zero elsewhere).
	Duration        time.Duration
	PrepareDuration time.Duration
	// Degraded is set whenever a solve stopped before proving its
	// answer — deadline, cancellation, expansion/node cap or memory
	// budget — and returned its best incumbent instead. AbortReason then
	// says which budget broke (AbortNone on a completed solve).
	Degraded    bool
	AbortReason AbortReason
	// Fallbacks records, for SolveRobust only, every rung the fallback
	// ladder attempted before this schedule answered, in attempt order
	// (the last entry is the rung that produced the schedule). Empty for
	// plain Solve/SolveContext calls.
	Fallbacks []Fallback
	// ElemAllocated / ElemReused report the search's element-pool
	// behaviour (graph searches only): elements freshly allocated vs
	// served from a free list. Reuse dominating allocation by orders of
	// magnitude is the expected shape on dismissal-heavy searches.
	ElemAllocated int64
	ElemReused    int64
	// KeyTableEntries is the number of distinct dismissal keys the
	// search recorded; KeyTableLoad the final occupancy of its
	// open-addressing table in [0,1].
	KeyTableEntries int
	KeyTableLoad    float64
	// Parallelism is the number of expansion workers the graph search
	// actually ran: 1 for the sequential path (including configurations
	// where a requested Options.Parallelism could not be applied without
	// changing the answer), 0 for non-graph methods.
	Parallelism int
	// Steals counts frontier-shard pops a parallel expansion worker took
	// from a shard it does not own; Speculative counts expansions of
	// elements above the global frontier minimum at pop time; Parked
	// counts park transitions of the memory-aware load balancer. All
	// zero for sequential solves.
	Steals      int64
	Speculative int64
	Parked      int64
	// Phases is the wall-clock breakdown of the solve pipeline in
	// completion order: "oracle" (degradation precompute), then per
	// method "graph"/"prepare"/"search" (graph searches), or
	// "model"/"search" (IP), or just "search" (PG, brute force).
	// Nested phases appear after the phases they contain complete.
	Phases []Phase
	// SolveID is the telemetry identity of the solver run that produced
	// this schedule — the id stamped on every event the run emitted, so a
	// caller holding a Schedule can find its trace (coschedtrace joins on
	// it, and the serving daemon reports it per request). For SolveRobust
	// it is the answering rung's id.
	SolveID uint64
}

// Fallback is one attempt of the SolveRobust ladder (see Stats.Fallbacks).
type Fallback struct {
	// Method is the rung's algorithm (the beam rung reports MethodHAStar
	// — it is HA* with a bounded beam width).
	Method Method
	// Degraded and Aborted mirror the attempt's Stats: whether the rung
	// stopped early and why. Err carries the rung's error text when the
	// attempt failed outright instead of degrading ("" otherwise).
	Degraded bool
	Aborted  AbortReason
	Err      string
	// Duration is the attempt's wall-clock time.
	Duration time.Duration
}

// Phase is one timed stage of the solve pipeline (see Stats.Phases).
type Phase struct {
	// Name identifies the stage ("oracle", "graph", "prepare",
	// "search", "model").
	Name string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
}

// Placement is one process pinned to one core.
type Placement struct {
	Machine int    // machine index, 0-based
	Core    int    // core index within the machine
	Process int    // 1-based process ID
	Job     string // job name ("" for padding processes)
	Rank    int    // rank within the job (0 for serial jobs)
}

// Schedule is a complete co-scheduling solution.
type Schedule struct {
	inst   *Instance
	cost   *degradation.Cost
	groups [][]job.ProcID

	// TotalDegradation is the Eq. 6/13 objective: serial degradations
	// summed, parallel jobs contributing their slowest process.
	TotalDegradation float64
	// Stats describes the solve.
	Stats Stats
}

// newSchedule wraps a solve's answer. The schedule keeps a fresh Cost, not
// the solve's, so holding a schedule does not pin the solve's node memo.
func newSchedule(inst *Instance, cost *degradation.Cost, groups [][]job.ProcID, total float64, st Stats) *Schedule {
	fresh := degradation.NewCost(cost.Batch, cost.Oracle, cost.Mode)
	return &Schedule{inst: inst, cost: fresh, groups: groups, TotalDegradation: total, Stats: st}
}

// Placements lists every process's machine and core assignment.
func (s *Schedule) Placements() []Placement {
	b := s.cost.Batch
	var out []Placement
	for mi, g := range s.groups {
		for ci, p := range g {
			pl := Placement{Machine: mi, Core: ci, Process: int(p)}
			if j := b.JobOf(p); j != nil {
				pl.Job = j.Name
				pl.Rank = b.Proc(p).Rank
			}
			out = append(out, pl)
		}
	}
	return out
}

// Machines returns the job names co-scheduled on each machine.
func (s *Schedule) Machines() [][]string {
	b := s.cost.Batch
	out := make([][]string, len(s.groups))
	for mi, g := range s.groups {
		for _, p := range g {
			if j := b.JobOf(p); j != nil {
				out[mi] = append(out[mi], j.Name)
			} else {
				out[mi] = append(out[mi], "-")
			}
		}
	}
	return out
}

// JobDegradations returns each job's final degradation: Eq. 1/9 for
// serial jobs, the per-job maximum for parallel jobs. Keys are job names
// (duplicate names are suffixed with their job index).
func (s *Schedule) JobDegradations() map[string]float64 {
	b := s.cost.Batch
	per := s.cost.PerJobDegradation(s.groups)
	names := make(map[string]int)
	for _, j := range b.Jobs {
		names[j.Name]++
	}
	out := make(map[string]float64, len(per))
	for jid, d := range per {
		name := b.Jobs[jid].Name
		if names[name] > 1 {
			name = fmt.Sprintf("%s#%d", name, jid)
		}
		out[name] = d
	}
	return out
}

// AvgDegradation returns the objective averaged over the batch's jobs
// (the paper's "AVG" bars).
func (s *Schedule) AvgDegradation() float64 {
	n := len(s.cost.Batch.Jobs)
	if n == 0 {
		return 0
	}
	return s.TotalDegradation / float64(n)
}

// NumMachines returns the machine count of the schedule.
func (s *Schedule) NumMachines() int { return len(s.groups) }

// String renders the schedule as a small table.
func (s *Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "schedule over %d machines, total degradation %.4f (avg %.4f)\n",
		len(s.groups), s.TotalDegradation, s.AvgDegradation())
	for mi, names := range s.Machines() {
		fmt.Fprintf(&sb, "  machine %2d: %s\n", mi, strings.Join(names, ", "))
	}
	degs := s.JobDegradations()
	keys := make([]string, 0, len(degs))
	for k := range degs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-12s %.4f\n", k, degs[k])
	}
	return sb.String()
}

// Execution is the simulated wall-clock outcome of running the schedule
// (see internal/sim for the execution model).
type Execution struct {
	// Makespan is the batch completion time in seconds.
	Makespan float64
	// MeanJobFinish is the average job finish time in seconds.
	MeanJobFinish float64
	// JobFinish maps job names to finish times (duplicate names get a
	// #index suffix, as in JobDegradations).
	JobFinish map[string]float64
	// MachineBusy is each machine's busy time in seconds.
	MachineBusy []float64
	// SlowdownSeconds is the total wall-clock time lost to contention
	// and communication versus solo execution.
	SlowdownSeconds float64
}

// Simulate executes the schedule against the machine model and returns
// the wall-clock outcome: the end-to-end effect of the placement, not
// just the abstract degradation objective. Execution always uses the
// full physical model (cache contention plus communication, AccountPC),
// whatever accounting the schedule was optimised under — that is what
// makes simulating an SE- or PE-optimised schedule informative.
func (s *Schedule) Simulate() (*Execution, error) {
	physical := s.inst.in.Cost(degradation.ModePC)
	res, err := sim.Run(physical, sim.SoloTimeFunc(s.inst.in.SoloTime), s.groups)
	if err != nil {
		return nil, err
	}
	b := s.cost.Batch
	names := make(map[string]int)
	for _, j := range b.Jobs {
		names[j.Name]++
	}
	jf := make(map[string]float64, len(res.JobFinish))
	for jid, t := range res.JobFinish {
		name := b.Jobs[jid].Name
		if names[name] > 1 {
			name = fmt.Sprintf("%s#%d", name, jid)
		}
		jf[name] = t
	}
	return &Execution{
		Makespan:        res.Makespan,
		MeanJobFinish:   res.MeanJobFinish(),
		JobFinish:       jf,
		MachineBusy:     res.MachineBusy,
		SlowdownSeconds: res.TotalSlowdownSeconds,
	}, nil
}

// Groups exposes the raw partition as 1-based process IDs.
func (s *Schedule) Groups() [][]int {
	out := make([][]int, len(s.groups))
	for i, g := range s.groups {
		for _, p := range g {
			out[i] = append(out[i], int(p))
		}
	}
	return out
}
