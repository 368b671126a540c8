package degradation

import (
	"fmt"

	"cosched/internal/cache"
	"cosched/internal/comm"
	"cosched/internal/job"
)

// SDCOracle derives degradations from the full cache/communication
// pipeline: SDC co-run miss prediction (cache.Compete) feeding the
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
// profiles. For up to memoNodeMax processes the profile list and the
// competition's shares live on the stack, so a query allocates nothing.
func (o *SDCOracle) Degradation(p job.ProcID, coRunners []job.ProcID) float64 {
	prof := o.profiles[int(p)-1]
	if prof == nil {
		return 0
	}
	var groupBuf [memoNodeMax]*cache.Profile
	group := o.appendProfiles(append(groupBuf[:0], prof), coRunners)
	var effBuf [memoNodeMax]int
	eff, _ := o.compete(&effBuf, group)
	return cache.CoRunDegradation(o.machine, prof, eff[0])
}

// nodeCosts fills out[j] with the effective degradation of sorted[j]
// against the rest of the node, in ascending process-ID order, plus the
// Eq. 9 communication term when comm is set: bit for bit what Degradation
// and CommDegradation return with the co-runners listed in ascending
// order. One SDC competition over the node's live profiles, in ascending
// order, answers every member. Without a tie every ordering of those
// profiles yields the same shares, so that one competition is each
// member's own. With a tie only the first live member's ordering is the
// one competed, and every other member gets its own Degradation call.
//
// All scratch is on the stack: the oracle is shared by parallel search
// workers and concurrent solves, so it holds nothing mutable.
func (o *SDCOracle) nodeCosts(out []float64, sorted []job.ProcID, comm bool) {
	var groupBuf [memoNodeMax]*cache.Profile
	group := o.appendProfiles(groupBuf[:0], sorted)
	var effBuf [memoNodeMax]int
	eff, tied := o.compete(&effBuf, group)
	var coBuf [memoNodeMax]job.ProcID
	live := 0
	for j, p := range sorted {
		co := append(append(coBuf[:0], sorted[:j]...), sorted[j+1:]...)
		var d float64
		if prof := o.profiles[int(p)-1]; prof != nil {
			if tied && live > 0 {
				d = o.Degradation(p, co)
			} else {
				d = cache.CoRunDegradation(o.machine, prof, eff[live])
			}
			live++
		}
		if comm {
			d += o.CommDegradation(p, co)
		}
		out[j] = d
	}
}

// appendProfiles appends to dst the profiles of the real processes among
// procs, in order; imaginary processes neither suffer nor cause
// degradation.
func (o *SDCOracle) appendProfiles(dst []*cache.Profile, procs []job.ProcID) []*cache.Profile {
	for _, q := range procs {
		if qp := o.profiles[int(q)-1]; qp != nil {
			dst = append(dst, qp)
		}
	}
	return dst
}

// compete runs the SDC competition among group on the oracle's machine,
// with the shares in buf when the group fits, and reports the shares and
// whether a tie decided any position.
func (o *SDCOracle) compete(buf *[memoNodeMax]int, group []*cache.Profile) ([]int, bool) {
	eff := buf[:]
	if len(group) > len(eff) {
		eff = make([]int, len(group))
	}
	eff = eff[:len(group)]
	return eff, cache.Compete(group, o.machine.Ways, eff)
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
