// Package sim executes a co-schedule against the machine model and
// reports wall-clock outcomes: per-job finish times, per-machine busy
// times and the batch makespan. It closes the loop the paper's premise
// opens — lower total degradation should mean earlier finishes — and the
// test suite uses it to check exactly that on randomised batches.
//
// The execution model matches the paper's assumptions: all processes of a
// machine start together on their own cores; a process's runtime is its
// solo computation time inflated by its co-run degradation (Eq. 1, plus
// the Eq. 9 communication term for PC processes); a serial job finishes
// with its process; a parallel job finishes when its slowest process
// finishes (§II-B); machines run independently.
package sim

import (
	"fmt"
	"math"

	"cosched/internal/degradation"
	"cosched/internal/job"
)

// SoloTimes supplies each process's stand-alone computation time in
// seconds (ct_i of Eq. 1).
type SoloTimes interface {
	SoloTime(p job.ProcID) float64
}

// SoloTimeFunc adapts a function to the SoloTimes interface.
type SoloTimeFunc func(p job.ProcID) float64

// SoloTime implements SoloTimes.
func (f SoloTimeFunc) SoloTime(p job.ProcID) float64 { return f(p) }

// Result is the outcome of executing one schedule.
type Result struct {
	// ProcFinish[p-1] is the wall-clock finish time of process p.
	ProcFinish []float64
	// JobFinish maps each job to its finish time (max over its
	// processes for parallel jobs).
	JobFinish map[job.JobID]float64
	// MachineBusy[i] is how long machine i stays busy (its slowest
	// core).
	MachineBusy []float64
	// Makespan is the batch completion time.
	Makespan float64
	// TotalSlowdownSeconds is the summed wall-clock time lost to
	// contention and communication versus solo execution, over all
	// processes.
	TotalSlowdownSeconds float64
}

// Run executes the schedule under the cost model. groups must be a valid
// partition for the cost's batch.
func Run(c *degradation.Cost, solo SoloTimes, groups [][]job.ProcID) (*Result, error) {
	if err := c.ValidatePartition(groups); err != nil {
		return nil, err
	}
	b := c.Batch
	n := b.NumProcs()
	res := &Result{
		ProcFinish:  make([]float64, n),
		JobFinish:   make(map[job.JobID]float64, len(b.Jobs)),
		MachineBusy: make([]float64, len(groups)),
	}
	var costs []float64
	for mi, g := range groups {
		costs = c.NodeCosts(costs[:0], g)
		for i, p := range g {
			if b.Proc(p).Imaginary {
				continue
			}
			st := solo.SoloTime(p)
			if st < 0 || math.IsNaN(st) || math.IsInf(st, 0) {
				return nil, fmt.Errorf("sim: process %d has invalid solo time %v", p, st)
			}
			d := costs[i]
			t := st * (1 + d)
			res.ProcFinish[int(p)-1] = t
			res.TotalSlowdownSeconds += t - st
			if t > res.MachineBusy[mi] {
				res.MachineBusy[mi] = t
			}
			j := b.JobOf(p)
			if j != nil {
				if t > res.JobFinish[j.ID] {
					res.JobFinish[j.ID] = t
				}
			}
		}
		if res.MachineBusy[mi] > res.Makespan {
			res.Makespan = res.MachineBusy[mi]
		}
	}
	return res, nil
}

// MeanJobFinish returns the average job finish time: the batch-level
// responsiveness metric a scheduler's users feel.
func (r *Result) MeanJobFinish() float64 {
	if len(r.JobFinish) == 0 {
		return 0
	}
	var sum float64
	for _, t := range r.JobFinish {
		sum += t
	}
	return sum / float64(len(r.JobFinish))
}
