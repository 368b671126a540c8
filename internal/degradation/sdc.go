package degradation

import (
	"fmt"

	"cosched/internal/cache"
	"cosched/internal/comm"
	"cosched/internal/job"
)

// SDCOracle derives degradations from the full cache/communication
// pipeline: SDC co-run miss prediction (cache.EffectiveWays) feeding the
// Eq. 14-15 CPU-time model, and comm.Pattern halo traffic over the cluster
// network for the Eq. 9 communication term.
type SDCOracle struct {
	batch    *job.Batch
	machine  *cache.Machine
	profiles []*cache.Profile // index p-1; nil for imaginary procs
	patterns map[job.JobID]*comm.Pattern
}

// NewSDCOracle builds the oracle. profiles must be index-aligned with the
// batch's processes (profiles[p-1] for process p, nil for imaginary
// padding). patterns maps each PC job to its decomposition; jobs absent
// from the map (serial, PE) have no communication.
func NewSDCOracle(b *job.Batch, m *cache.Machine, profiles []*cache.Profile, patterns map[job.JobID]*comm.Pattern) (*SDCOracle, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) != b.NumProcs() {
		return nil, fmt.Errorf("degradation: %d profiles for %d processes", len(profiles), b.NumProcs())
	}
	for i, p := range profiles {
		proc := &b.Procs[i]
		if proc.Imaginary {
			if p != nil {
				return nil, fmt.Errorf("degradation: imaginary process %d has a profile", proc.ID)
			}
			continue
		}
		if p == nil {
			return nil, fmt.Errorf("degradation: real process %d has no profile", proc.ID)
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	for jid, pt := range patterns {
		if int(jid) < 0 || int(jid) >= len(b.Jobs) {
			return nil, fmt.Errorf("degradation: pattern for unknown job %d", jid)
		}
		if err := pt.Validate(len(b.Jobs[jid].Procs)); err != nil {
			return nil, fmt.Errorf("degradation: job %q: %w", b.Jobs[jid].Name, err)
		}
	}
	return &SDCOracle{batch: b, machine: m, profiles: profiles, patterns: patterns}, nil
}

// Degradation implements Oracle via the SDC merge of the co-running
// profiles.
func (o *SDCOracle) Degradation(p job.ProcID, coRunners []job.ProcID) float64 {
	prof := o.profiles[int(p)-1]
	if prof == nil {
		return 0
	}
	group := make([]*cache.Profile, 0, len(coRunners)+1)
	group = append(group, prof)
	for _, q := range coRunners {
		if qp := o.profiles[int(q)-1]; qp != nil {
			group = append(group, qp)
		}
	}
	degs := cache.CoRunDegradations(o.machine, group)
	return degs[0]
}

// CommDegradation implements Oracle: c(i,S)/ct(i) for PC processes, 0 for
// everything else.
func (o *SDCOracle) CommDegradation(p job.ProcID, coRunners []job.ProcID) float64 {
	j := o.batch.JobOf(p)
	if j == nil || j.Kind != job.PC {
		return 0
	}
	pt := o.patterns[j.ID]
	if pt == nil {
		return 0
	}
	ct := cache.SoloCPUTime(o.machine, o.profiles[int(p)-1])
	if ct <= 0 {
		return 0
	}
	var buf [8]int
	same := sameJobRanks(buf[:0], o.batch, j.ID, coRunners)
	return pt.Time(o.batch.Proc(p).Rank, same, o.machine.NetworkBandwidth) / ct
}

// Pattern returns the decomposition of the given job, or nil.
func (o *SDCOracle) Pattern(j job.JobID) *comm.Pattern { return o.patterns[j] }

// Machine returns the machine the oracle models.
func (o *SDCOracle) Machine() *cache.Machine { return o.machine }

// Profile returns the profile of a process (nil for imaginary ones).
func (o *SDCOracle) Profile(p job.ProcID) *cache.Profile { return o.profiles[int(p)-1] }
