// Package pg implements the politeness-greedy (PG) baseline of Jiang et
// al. [18], the heuristic the paper compares HA* against (§V-E). PG scores
// every process by the degradation it *causes* to co-runners (its
// politeness), then greedily pairs the most impolite unassigned process
// with the most polite remaining ones, machine by machine.
package pg

import (
	"sort"
	"time"

	"cosched/internal/degradation"
	"cosched/internal/job"
	"cosched/internal/telemetry"
)

// Result is the schedule PG produced.
type Result struct {
	Groups [][]job.ProcID
	Cost   float64
}

// Politeness returns, for every process, the average degradation it
// inflicts on the other processes in pairwise co-runs. Higher values mean
// more impolite. Imaginary processes are perfectly polite (0).
func Politeness(c *degradation.Cost) []float64 {
	b := c.Batch
	n := b.NumProcs()
	caused := make([]float64, n+1)
	// One co-runner slice serves every pair: it escapes through the
	// Oracle interface, so a fresh one per query would be n(n-1) heap
	// allocations.
	co := make([]job.ProcID, 1)
	for i := 1; i <= n; i++ {
		if b.Procs[i-1].Imaginary {
			continue
		}
		co[0] = job.ProcID(i)
		var sum float64
		var cnt int
		for j := 1; j <= n; j++ {
			if j == i || b.Procs[j-1].Imaginary {
				continue
			}
			sum += c.Oracle.Degradation(job.ProcID(j), co)
			cnt++
		}
		if cnt > 0 {
			caused[i] = sum / float64(cnt)
		}
	}
	return caused
}

// Solve runs the politeness-greedy co-scheduler and evaluates the
// schedule under the given cost model.
func Solve(c *degradation.Cost) *Result {
	return SolveObserved(c, nil)
}

// SolveObserved is Solve with telemetry: a non-nil registry receives the
// "pg.*" family (solves, machines produced, politeness-scoring and total
// wall time; DESIGN.md §6).
func SolveObserved(c *degradation.Cost, reg *telemetry.Registry) *Result {
	start := time.Now()
	res, scoreDur := solve(c)
	if reg != nil {
		reg.Counter("pg.solves").Add(1)
		reg.Counter("pg.machines").Add(int64(len(res.Groups)))
		reg.Counter("pg.politeness_ns").Add(scoreDur.Nanoseconds())
		reg.Counter("pg.solve_ns").Add(time.Since(start).Nanoseconds())
	}
	return res
}

func solve(c *degradation.Cost) (*Result, time.Duration) {
	b := c.Batch
	n := b.NumProcs()
	u := b.Cores
	scoreStart := time.Now()
	caused := Politeness(c)
	scoreDur := time.Since(scoreStart)

	// Order processes from most impolite to most polite.
	order := make([]int, n)
	for i := range order {
		order[i] = i + 1
	}
	sort.SliceStable(order, func(a, b int) bool { return caused[order[a]] > caused[order[b]] })

	assigned := make([]bool, n+1)
	var groups [][]job.ProcID
	for _, seed := range order {
		if assigned[seed] {
			continue
		}
		node := []job.ProcID{job.ProcID(seed)}
		assigned[seed] = true
		// Fill the machine with the most polite remaining processes
		// (scan the order from the back).
		for k := len(order) - 1; k >= 0 && len(node) < u; k-- {
			p := order[k]
			if !assigned[p] {
				node = append(node, job.ProcID(p))
				assigned[p] = true
			}
		}
		groups = append(groups, job.SortedProcIDs(node))
	}
	return &Result{Groups: groups, Cost: c.PartitionCost(groups)}, scoreDur
}
