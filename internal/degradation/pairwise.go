package degradation

import (
	"fmt"
	"math"

	"cosched/internal/comm"
	"cosched/internal/job"
)

// PairwiseOracle approximates d(i,S) = Σ_{j∈S} M[i][j], where M[i][j] is
// the degradation process i suffers when co-running with j alone. The
// additive-interference assumption is standard in contention modelling and
// makes each query O(u); the large-scale synthetic experiments (Figs. 5,
// 12, 13) use it, as does HA*'s pairwise candidate generation.
type PairwiseOracle struct {
	batch    *job.Batch
	m        [][]float64 // m[i-1][j-1]: slowdown of i caused by j
	patterns map[job.JobID]*comm.Pattern
	// commFactor converts pattern halo bytes into a degradation term;
	// it plays the role of 1/(B·ct) of Eq. 9-10.
	commFactor float64
}

// NewPairwiseOracle builds the oracle from an interference matrix. m must
// be n×n with zero diagonal; m[i][j], finite and ≥ 0, is the degradation
// process i+1 suffers from co-running with j+1. HA*'s candidate
// generators prune on that premise (a node weighs at least any of its
// sub-nodes), so NaN, ±Inf and negative entries are rejected. patterns
// and commFactor configure the Eq. 9 communication term (pass nil/0 for
// computation-only batches).
func NewPairwiseOracle(b *job.Batch, m [][]float64, patterns map[job.JobID]*comm.Pattern, commFactor float64) (*PairwiseOracle, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := b.NumProcs()
	if len(m) != n {
		return nil, fmt.Errorf("degradation: interference matrix is %d×?; want %d", len(m), n)
	}
	for i := range m {
		if len(m[i]) != n {
			return nil, fmt.Errorf("degradation: interference row %d has %d entries; want %d", i, len(m[i]), n)
		}
		if m[i][i] != 0 {
			return nil, fmt.Errorf("degradation: interference matrix diagonal %d is %v; want 0", i, m[i][i])
		}
		for j := range m[i] {
			if !(m[i][j] >= 0) || math.IsInf(m[i][j], 1) {
				return nil, fmt.Errorf("degradation: interference m[%d][%d] is %v; want finite and ≥ 0", i, j, m[i][j])
			}
			if b.Procs[i].Imaginary || b.Procs[j].Imaginary {
				if m[i][j] != 0 {
					return nil, fmt.Errorf("degradation: imaginary process in pair (%d,%d) has non-zero interference", i+1, j+1)
				}
			}
		}
	}
	for jid, pt := range patterns {
		if int(jid) < 0 || int(jid) >= len(b.Jobs) {
			return nil, fmt.Errorf("degradation: pattern for unknown job %d", jid)
		}
		if err := pt.Validate(len(b.Jobs[jid].Procs)); err != nil {
			return nil, err
		}
	}
	return &PairwiseOracle{batch: b, m: m, patterns: patterns, commFactor: commFactor}, nil
}

// Degradation implements Oracle by summing pairwise interference.
func (o *PairwiseOracle) Degradation(p job.ProcID, coRunners []job.ProcID) float64 {
	row := o.m[int(p)-1]
	var d float64
	for _, q := range coRunners {
		d += row[int(q)-1]
	}
	return d
}

// CommDegradation implements Oracle with the SDC oracle's Eq. 10-11
// term, scaled by a constant bytes-to-degradation factor instead of the
// bandwidth and solo CPU time: at bandwidth 1, Time is the remote bytes.
func (o *PairwiseOracle) CommDegradation(p job.ProcID, coRunners []job.ProcID) float64 {
	j := o.batch.JobOf(p)
	if j == nil || j.Kind != job.PC || o.commFactor == 0 {
		return 0
	}
	pt := o.patterns[j.ID]
	if pt == nil {
		return 0
	}
	var buf [8]int
	same := sameJobRanks(buf[:0], o.batch, j.ID, coRunners)
	return pt.Time(o.batch.Proc(p).Rank, same, 1) * o.commFactor
}

// Matrix exposes the interference matrix (read-only by convention).
func (o *PairwiseOracle) Matrix() [][]float64 { return o.m }

// CommFactor returns the bytes-to-degradation conversion factor of the
// Eq. 9 communication term (0 when communication is disabled).
func (o *PairwiseOracle) CommFactor() float64 { return o.commFactor }

// Pattern returns the decomposition of the given job, or nil.
func (o *PairwiseOracle) Pattern(j job.JobID) *comm.Pattern { return o.patterns[j] }
