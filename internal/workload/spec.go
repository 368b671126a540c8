package workload

import (
	"fmt"
	"math"

	"cosched/internal/cache"
	"cosched/internal/comm"
	"cosched/internal/degradation"
	"cosched/internal/job"
)

// Instance is a ready-to-solve co-scheduling problem: the batch, the
// machine class, and a degradation oracle wired to them.
type Instance struct {
	Batch   *job.Batch
	Machine *cache.Machine
	Oracle  degradation.Oracle
	// Patterns maps PC jobs to their decompositions (also held by the
	// oracle; exposed for condensation and diagnostics).
	Patterns map[job.JobID]*comm.Pattern
}

// Cost returns an objective evaluator for the instance under the given
// accounting mode, with its own empty node memo: build one per solve.
func (in *Instance) Cost(mode degradation.Mode) *degradation.Cost {
	return degradation.NewCost(in.Batch, in.Oracle, mode)
}

// nominalSoloSeconds is the stand-alone runtime assumed for processes of
// pairwise-oracle instances, which carry no cache profiles (the mid-range
// of the benchmark programs at the evaluation clock rates).
const nominalSoloSeconds = 60.0

// SoloTime returns the stand-alone computation time of a process in
// seconds: from its cache profile and the Eq. 14 CPU-time model when the
// instance is SDC-backed, a nominal constant for pairwise-backed
// instances. Imaginary processes take zero time.
func (in *Instance) SoloTime(p job.ProcID) float64 {
	if in.Batch.Proc(p).Imaginary {
		return 0
	}
	if sdc, ok := in.Oracle.(*degradation.SDCOracle); ok {
		return cache.SoloCPUTime(sdc.Machine(), sdc.Profile(p))
	}
	return nominalSoloSeconds
}

// Spec assembles an Instance job by job.
type Spec struct {
	builder  *job.Builder
	programs []Program // indexed by JobID
	patterns map[job.JobID]*comm.Pattern
}

// NewSpec returns an empty workload specification.
func NewSpec() *Spec {
	return &Spec{builder: job.NewBuilder(), patterns: make(map[job.JobID]*comm.Pattern)}
}

// AddSerial adds one serial job running the given program.
func (s *Spec) AddSerial(p Program) job.JobID {
	id := s.builder.AddSerial(p.Name)
	s.programs = append(s.programs, p)
	return id
}

// AddSerialByName adds a serial job by benchmark name.
func (s *Spec) AddSerialByName(name string) (job.JobID, error) {
	p, err := SerialProgram(name)
	if err != nil {
		return 0, err
	}
	return s.AddSerial(p), nil
}

// AddPE adds an embarrassingly-parallel job with nprocs slave processes,
// each running the program's profile.
func (s *Spec) AddPE(p Program, nprocs int) job.JobID {
	id := s.builder.AddPE(p.Name, nprocs)
	s.programs = append(s.programs, p)
	return id
}

// AddPC adds a communicating parallel job. If pattern is nil a
// near-square 2D decomposition with the program's default halo volumes is
// used; the per-neighbour halo shrinks with the subdomain side
// (∝ 1/sqrt(nprocs)), as a 2D domain decomposition's boundary does.
func (s *Spec) AddPC(p Program, nprocs int, pattern *comm.Pattern) job.JobID {
	if pattern == nil {
		hx, hy := DefaultHalo(p.Name)
		scale := 1 / math.Sqrt(float64(nprocs))
		pattern = comm.NearSquareGrid2D(nprocs, hx*scale, hy*scale)
	}
	id := s.builder.AddPC(p.Name, nprocs)
	s.programs = append(s.programs, p)
	s.patterns[id] = pattern
	return id
}

// NumProcs returns the number of real processes added so far.
func (s *Spec) NumProcs() int { return s.builder.NumProcs() }

// Build materialises the instance for the given machine, padding the batch
// with imaginary processes up to a multiple of the core count.
func (s *Spec) Build(m *cache.Machine) (*Instance, error) {
	b, err := s.builder.Build(m.Cores)
	if err != nil {
		return nil, err
	}
	profiles := make([]*cache.Profile, b.NumProcs())
	for i := range b.Procs {
		p := &b.Procs[i]
		if p.Imaginary {
			continue
		}
		prog := s.programs[p.Job]
		if k := len(b.Jobs[p.Job].Procs); k > 1 {
			// Strong scaling: a k-way parallel job splits its
			// computation across ranks, so each rank's base cycle
			// count is 1/k of the program's. Degradations (stall/base
			// ratios) are unaffected; the communication-to-computation
			// ratio grows with k, as it does for real MPI codes.
			prog.BaseGCycles /= float64(k)
		}
		profiles[i] = prog.Profile(m)
	}
	oracle, err := degradation.NewSDCOracle(b, m, profiles, s.patterns)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Batch:    b,
		Machine:  m,
		Oracle:   oracle,
		Patterns: s.patterns,
	}, nil
}

// DefaultHalo returns per-dimension halo volumes (bytes exchanged with each
// neighbour over the whole run) for the NPB-MPI programs. Values are sized
// so that communication degradations land in the same few-percent to
// tens-of-percent band as cache degradations, matching Fig. 7's CCD scale.
func DefaultHalo(name string) (hx, hy float64) {
	switch name {
	case "BT-Par":
		return 2.5e9, 2.5e9
	case "LU-Par":
		return 1.5e9, 1.5e9
	case "MG-Par":
		return 3.0e9, 3.0e9
	case "CG-Par":
		return 2.0e9, 2.0e9
	default:
		return 2.0e9, 2.0e9
	}
}

// SerialInstance builds an all-serial instance from benchmark names.
func SerialInstance(names []string, m *cache.Machine) (*Instance, error) {
	s := NewSpec()
	for _, n := range names {
		if _, err := s.AddSerialByName(n); err != nil {
			return nil, err
		}
	}
	return s.Build(m)
}

// FirstSerialNames returns the first n serial benchmark names in canonical
// order (NPB-SER then SPEC), the subsets Tables I/III draw from.
func FirstSerialNames(n int) ([]string, error) {
	all := SerialProgramNames()
	if n > len(all) {
		return nil, fmt.Errorf("workload: %d serial programs requested; only %d defined", n, len(all))
	}
	return all[:n], nil
}
