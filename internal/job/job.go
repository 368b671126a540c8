// Package job defines the workload model of the co-scheduling problem: a
// batch of processes originating from serial jobs, embarrassingly-parallel
// (PE) jobs and communicating parallel (PC) jobs, to be partitioned onto
// identical u-core machines with one process per core.
//
// Process IDs are 1-based, matching the co-scheduling-graph convention of
// the paper (level i of the graph contains the nodes whose smallest process
// ID is i). ID 0 is reserved and never used for a real process.
package job

import (
	"fmt"
	"sort"
)

// Kind classifies a job by its parallel structure.
type Kind int

const (
	// Serial is a single-process job. Its degradation enters the
	// objective directly (Eq. 2).
	Serial Kind = iota
	// PE is an embarrassingly-parallel job: several processes, no
	// inter-process communication; the job's degradation is the maximum
	// over its processes (Eq. 5).
	PE
	// PC is a parallel job with communications: the job's degradation is
	// the maximum communication-combined degradation (Eq. 9) over its
	// processes.
	PC
)

// String returns the short label used in tables ("se", "pe", "pc").
func (k Kind) String() string {
	switch k {
	case Serial:
		return "se"
	case PE:
		return "pe"
	case PC:
		return "pc"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ProcID identifies a process within a batch. IDs are 1..N and dense.
type ProcID int

// JobID identifies a job within a batch. Serial jobs and parallel jobs
// share the same ID space. IDs are 0..len(Jobs)-1.
type JobID int

// NoJob marks a process that belongs to no parallel job (i.e. a padding
// process). Real processes always have a valid JobID.
const NoJob JobID = -1

// Job is one schedulable job: a serial program or a parallel program with
// several processes.
type Job struct {
	ID   JobID
	Name string
	Kind Kind
	// Procs lists the processes of this job in rank order. A serial job
	// has exactly one process.
	Procs []ProcID
}

// Process is one schedulable entity, pinned to one core by the scheduler.
type Process struct {
	ID  ProcID
	Job JobID
	// Rank is the process's index within its job (0-based). For serial
	// jobs Rank is always 0.
	Rank int
	// Imaginary marks a padding process added so that the batch size is
	// a multiple of the machine core count. Imaginary processes have no
	// degradation with any co-runner and cause none.
	Imaginary bool
}

// Batch is a complete co-scheduling problem instance: the processes, their
// grouping into jobs, and the core count of the (identical) machines.
type Batch struct {
	Jobs  []Job
	Procs []Process // index p-1 holds process p
	Cores int       // u: cores per machine
}

// NumProcs returns n, the number of processes including padding.
func (b *Batch) NumProcs() int { return len(b.Procs) }

// NumMachines returns m = n/u.
func (b *Batch) NumMachines() int { return len(b.Procs) / b.Cores }

// Proc returns the process with the given ID.
func (b *Batch) Proc(id ProcID) *Process { return &b.Procs[int(id)-1] }

// Job returns the job a process belongs to, or nil for padding processes.
func (b *Batch) JobOf(id ProcID) *Job {
	j := b.Procs[int(id)-1].Job
	if j == NoJob {
		return nil
	}
	return &b.Jobs[j]
}

// IsParallelProc reports whether the process belongs to a PE or PC job.
func (b *Batch) IsParallelProc(id ProcID) bool {
	j := b.JobOf(id)
	return j != nil && j.Kind != Serial
}

// Validate checks the structural invariants of the batch: dense 1-based
// process IDs, consistent job membership, n divisible by u.
func (b *Batch) Validate() error {
	if b.Cores < 1 {
		return fmt.Errorf("job: batch has %d cores per machine; need >= 1", b.Cores)
	}
	n := len(b.Procs)
	if n == 0 {
		return fmt.Errorf("job: batch has no processes")
	}
	if n%b.Cores != 0 {
		return fmt.Errorf("job: %d processes not divisible by %d cores (pad the batch first)", n, b.Cores)
	}
	for i := range b.Procs {
		p := &b.Procs[i]
		if int(p.ID) != i+1 {
			return fmt.Errorf("job: process at index %d has ID %d; want %d", i, p.ID, i+1)
		}
		if p.Job != NoJob {
			if int(p.Job) < 0 || int(p.Job) >= len(b.Jobs) {
				return fmt.Errorf("job: process %d references job %d of %d", p.ID, p.Job, len(b.Jobs))
			}
			j := &b.Jobs[p.Job]
			if p.Rank < 0 || p.Rank >= len(j.Procs) || j.Procs[p.Rank] != p.ID {
				return fmt.Errorf("job: process %d rank %d inconsistent with job %q", p.ID, p.Rank, j.Name)
			}
		} else if !p.Imaginary {
			return fmt.Errorf("job: non-imaginary process %d belongs to no job", p.ID)
		}
	}
	for ji := range b.Jobs {
		j := &b.Jobs[ji]
		if int(j.ID) != ji {
			return fmt.Errorf("job: job at index %d has ID %d", ji, j.ID)
		}
		if len(j.Procs) == 0 {
			return fmt.Errorf("job: job %q has no processes", j.Name)
		}
		if j.Kind == Serial && len(j.Procs) != 1 {
			return fmt.Errorf("job: serial job %q has %d processes", j.Name, len(j.Procs))
		}
		for r, pid := range j.Procs {
			if int(pid) < 1 || int(pid) > n {
				return fmt.Errorf("job: job %q references process %d of %d", j.Name, pid, n)
			}
			p := b.Proc(pid)
			if p.Job != j.ID || p.Rank != r {
				return fmt.Errorf("job: job %q proc list inconsistent at rank %d", j.Name, r)
			}
		}
	}
	return nil
}

// ParallelJobs returns the IDs of all PE and PC jobs in the batch.
func (b *Batch) ParallelJobs() []JobID {
	var ids []JobID
	for i := range b.Jobs {
		if b.Jobs[i].Kind != Serial {
			ids = append(ids, b.Jobs[i].ID)
		}
	}
	return ids
}

// Builder incrementally assembles a Batch. Jobs are added with AddSerial /
// AddPE / AddPC; Build pads the batch with imaginary processes up to a
// multiple of the core count and validates it.
type Builder struct {
	jobs  []Job
	procs []Process
}

// NewBuilder returns an empty batch builder.
func NewBuilder() *Builder { return &Builder{} }

// AddSerial adds a one-process serial job and returns its job ID.
func (bd *Builder) AddSerial(name string) JobID {
	return bd.add(name, Serial, 1)
}

// AddPE adds an embarrassingly-parallel job with the given process count.
func (bd *Builder) AddPE(name string, procs int) JobID {
	return bd.add(name, PE, procs)
}

// AddPC adds a communicating parallel job with the given process count.
func (bd *Builder) AddPC(name string, procs int) JobID {
	return bd.add(name, PC, procs)
}

func (bd *Builder) add(name string, k Kind, nprocs int) JobID {
	if nprocs < 1 {
		panic(fmt.Sprintf("job: %q needs at least one process", name))
	}
	id := JobID(len(bd.jobs))
	j := Job{ID: id, Name: name, Kind: k}
	for r := 0; r < nprocs; r++ {
		pid := ProcID(len(bd.procs) + 1)
		bd.procs = append(bd.procs, Process{ID: pid, Job: id, Rank: r})
		j.Procs = append(j.Procs, pid)
	}
	bd.jobs = append(bd.jobs, j)
	return id
}

// NumProcs returns the number of real processes added so far.
func (bd *Builder) NumProcs() int { return len(bd.procs) }

// Build pads the batch to a multiple of cores with imaginary processes and
// returns the validated Batch.
func (bd *Builder) Build(cores int) (*Batch, error) {
	b := &Batch{
		Jobs:  append([]Job(nil), bd.jobs...),
		Procs: append([]Process(nil), bd.procs...),
		Cores: cores,
	}
	if cores > 0 {
		for len(b.Procs)%cores != 0 {
			pid := ProcID(len(b.Procs) + 1)
			b.Procs = append(b.Procs, Process{ID: pid, Job: NoJob, Imaginary: true})
		}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// SortedProcIDs returns a sorted copy of the given process IDs.
func SortedProcIDs(ids []ProcID) []ProcID {
	out := append([]ProcID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
