package degradation

import (
	"fmt"

	"cosched/internal/job"
)

// Mode selects how a method accounts for parallel jobs, matching the three
// OA* variants of the evaluation (§V-B):
//
//   - ModeSE treats every process as serial: the objective is the plain sum
//     of Eq. 1 degradations (Eq. 12). This is OA*-SE.
//   - ModePE recognises parallel jobs (per-job max, Eq. 13) but ignores
//     communication: degradations come from Eq. 1 only. This is OA*-PE.
//   - ModePC additionally folds communication time into PC process
//     degradations (Eq. 9). This is OA*-PC, the full model.
type Mode int

// The three accounting modes of the paper's evaluation (Figs. 6-7).
const (
	ModeSE Mode = iota
	ModePE
	ModePC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSE:
		return "SE"
	case ModePE:
		return "PE"
	case ModePC:
		return "PC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Cost evaluates node weights and schedule objectives for one batch under
// one accounting mode. It is the single source of truth for Eq. 6, Eq. 12
// and Eq. 13 across OA*, HA*, O-SVP, PG, brute force and the IP model.
//
// It is also the only cache of degradation values. Every method builds
// one Cost per solve and reads each node through NodeCosts, whose memo
// holds at most 1<<17 nodes and dies with the Cost. A Cost is safe for
// concurrent use: parallel search workers share one. Build it with
// NewCost.
type Cost struct {
	Batch  *job.Batch
	Oracle Oracle
	Mode   Mode

	memo nodeMemo
}

// NewCost wires a cost evaluator with an empty node memo.
func NewCost(b *job.Batch, o Oracle, mode Mode) *Cost {
	return &Cost{Batch: b, Oracle: o, Mode: mode, memo: nodeMemo{limit: nodeMemoEntries}}
}

// ProcCost returns the effective degradation of process p co-running with
// coRunners: Eq. 1 under ModeSE/ModePE, Eq. 9 (computation + communication)
// under ModePC. It reads through the node memo like NodeCosts.
func (c *Cost) ProcCost(p job.ProcID, coRunners []job.ProcID) float64 {
	var nodeBuf [memoNodeMax]job.ProcID
	var out [memoNodeMax]float64
	node := append(append(nodeBuf[:0], p), coRunners...)
	return c.NodeCosts(out[:0], node)[0]
}

// NodeWeight returns the weight of one co-scheduling-graph node: the total
// effective degradation of the u processes placed together (§III-A).
func (c *Cost) NodeWeight(procs []job.ProcID) float64 {
	var buf [memoNodeMax]float64
	var w float64
	for _, d := range c.NodeCosts(buf[:0], procs) {
		w += d
	}
	return w
}

// Accumulator tracks the Eq. 13 path distance incrementally as nodes are
// appended to a sub-path: serial degradations add directly; each parallel
// job contributes its running maximum. The zero value is an empty path.
//
// Under ModeSE the per-job maxima are bypassed and everything sums (Eq. 12),
// so OA*-SE is literally OA* with a different Accumulator behaviour.
type Accumulator struct {
	cost *Cost
	// dist is the Eq. 13 distance of the sub-path so far.
	dist float64
	// jobMax[j] is the largest effective degradation seen among the
	// scheduled processes of parallel job j (already folded into dist).
	jobMax map[job.JobID]float64
}

// NewAccumulator returns an empty-path accumulator for the cost model.
func (c *Cost) NewAccumulator() *Accumulator {
	return &Accumulator{cost: c, jobMax: make(map[job.JobID]float64)}
}

// Clone returns an independent copy of the accumulator.
func (a *Accumulator) Clone() *Accumulator {
	jm := make(map[job.JobID]float64, len(a.jobMax))
	for k, v := range a.jobMax {
		jm[k] = v
	}
	return &Accumulator{cost: a.cost, dist: a.dist, jobMax: jm}
}

// Add appends one graph node (a u-cardinality process group) to the path
// and returns the updated distance.
func (a *Accumulator) Add(procs []job.ProcID) float64 {
	b := a.cost.Batch
	var buf [memoNodeMax]float64
	costs := a.cost.NodeCosts(buf[:0], procs)
	for i, p := range procs {
		d := costs[i]
		j := b.JobOf(p)
		if a.cost.Mode == ModeSE || j == nil || j.Kind == job.Serial {
			a.dist += d
			continue
		}
		if cur, ok := a.jobMax[j.ID]; !ok || d > cur {
			if ok {
				a.dist += d - cur
			} else {
				a.dist += d
			}
			a.jobMax[j.ID] = d
		}
	}
	return a.dist
}

// Dist returns the current Eq. 13 distance of the path.
func (a *Accumulator) Dist() float64 { return a.dist }

// JobMaxes returns the per-parallel-job running maxima (used by the exact
// dismissal key, DESIGN.md §3).
func (a *Accumulator) JobMaxes() map[job.JobID]float64 { return a.jobMax }

// PartitionCost evaluates the full objective of a complete schedule: the
// groups must partition all processes into u-cardinality sets. The order of
// groups and of processes within groups is irrelevant.
func (c *Cost) PartitionCost(groups [][]job.ProcID) float64 {
	acc := c.NewAccumulator()
	for _, g := range groups {
		acc.Add(g)
	}
	return acc.Dist()
}

// PerJobDegradation reports, for a complete schedule, each job's final
// degradation: Eq. 1/9 for serial jobs, the per-job max for parallel jobs.
// Keyed by JobID. Imaginary processes are skipped.
func (c *Cost) PerJobDegradation(groups [][]job.ProcID) map[job.JobID]float64 {
	out := make(map[job.JobID]float64, len(c.Batch.Jobs))
	var buf [memoNodeMax]float64
	for _, g := range groups {
		costs := c.NodeCosts(buf[:0], g)
		for i, p := range g {
			j := c.Batch.JobOf(p)
			if j == nil {
				continue
			}
			d := costs[i]
			if j.Kind == job.Serial || c.Mode == ModeSE {
				out[j.ID] += d
			} else if cur, ok := out[j.ID]; !ok || d > cur {
				out[j.ID] = d
			}
		}
	}
	return out
}

// ValidatePartition checks that groups is a legal schedule for the batch:
// every process appears exactly once and every group has exactly u members.
func (c *Cost) ValidatePartition(groups [][]job.ProcID) error {
	n := c.Batch.NumProcs()
	seen := make([]bool, n+1)
	count := 0
	for gi, g := range groups {
		if len(g) != c.Batch.Cores {
			return fmt.Errorf("degradation: group %d has %d processes; want %d", gi, len(g), c.Batch.Cores)
		}
		for _, p := range g {
			if int(p) < 1 || int(p) > n {
				return fmt.Errorf("degradation: group %d contains unknown process %d", gi, p)
			}
			if seen[p] {
				return fmt.Errorf("degradation: process %d scheduled twice", p)
			}
			seen[p] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("degradation: schedule covers %d of %d processes", count, n)
	}
	return nil
}
