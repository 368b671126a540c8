package degradation

import "cosched/internal/job"

// Oracle answers degradation queries for one batch on one machine class.
//
// Degradation returns Eq. 1's d(i,S): the relative slowdown of process p's
// computation when co-running with coRunners on one machine. CommDegradation
// returns Eq. 9's additive term c(i,S)/ct(i): the communication time of p
// normalised by its solo computation time, given that exactly the processes
// in coRunners share p's machine. Both must return 0 for imaginary
// (padding) processes, and imaginary co-runners must have no effect.
//
// Oracles only read coRunners during the call, so a caller may reuse one
// slice across queries. Oracles are not memoised: Cost caches their
// answers per solve.
type Oracle interface {
	Degradation(p job.ProcID, coRunners []job.ProcID) float64
	CommDegradation(p job.ProcID, coRunners []job.ProcID) float64
}

// sameJobRanks appends to dst the ranks of the co-runners that belong to
// job j: the co-located ranks of Eq. 10-11's β.
func sameJobRanks(dst []int, b *job.Batch, j job.JobID, coRunners []job.ProcID) []int {
	for _, q := range coRunners {
		if qp := b.Proc(q); qp.Job == j {
			dst = append(dst, qp.Rank)
		}
	}
	return dst
}
