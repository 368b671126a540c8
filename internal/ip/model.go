package ip

import (
	"fmt"

	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
)

// parTerm is the contribution of one parallel process inside one column to
// its job's y constraint.
type parTerm struct {
	jobIdx int // dense parallel-job index
	d      float64
}

// Column is one candidate machine assignment: a u-cardinality process set
// with its objective decomposition.
type Column struct {
	Procs []job.ProcID
	// SerialCost is the summed degradation of the column's serial
	// processes (all processes under ModeSE).
	SerialCost float64
	parTerms   []parTerm
}

// Model is the complete 0-1 program for one batch.
type Model struct {
	Cost    *degradation.Cost
	Columns []Column
	// ParJobs lists the parallel jobs (y variables), in dense order.
	ParJobs []job.JobID
	// colsByProc[i] lists the column indices containing process i+1.
	colsByProc [][]int
}

// MaxColumns guards the column enumeration: C(n,u) beyond this is a sign
// the instance belongs to the graph-based methods (the paper's IP solvers
// give up beyond 24 processes too).
const MaxColumns = 3_000_000

// BuildModel enumerates all u-subsets and prices them under the cost
// model.
func BuildModel(c *degradation.Cost) (*Model, error) {
	b := c.Batch
	n := b.NumProcs()
	u := b.Cores
	if total := graph.Binomial(n, u); total > MaxColumns {
		return nil, fmt.Errorf("ip: C(%d,%d) = %d columns exceed the model guard (%d)", n, u, total, MaxColumns)
	}
	m := &Model{Cost: c}
	useY := c.Mode != degradation.ModeSE
	parIdx := make(map[job.JobID]int)
	if useY {
		for _, jid := range b.ParallelJobs() {
			parIdx[jid] = len(m.ParJobs)
			m.ParJobs = append(m.ParJobs, jid)
		}
	}
	m.colsByProc = make([][]int, n)

	procs := make([]job.ProcID, u)
	idx := make([]int, u)
	for i := range idx {
		idx[i] = i
	}
	costs := make([]float64, 0, u)
	for {
		for i, ai := range idx {
			procs[i] = job.ProcID(ai + 1)
		}
		col := Column{Procs: append([]job.ProcID(nil), procs...)}
		costs = c.NodeCosts(costs[:0], procs)
		for i, p := range procs {
			d := costs[i]
			j := b.JobOf(p)
			if !useY || j == nil || j.Kind == job.Serial {
				col.SerialCost += d
			} else {
				col.parTerms = append(col.parTerms, parTerm{jobIdx: parIdx[j.ID], d: d})
			}
		}
		ci := len(m.Columns)
		m.Columns = append(m.Columns, col)
		for _, p := range procs {
			m.colsByProc[int(p)-1] = append(m.colsByProc[int(p)-1], ci)
		}
		// next combination of n choose u
		i := u - 1
		for i >= 0 && idx[i] == n-u+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < u; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return m, nil
}

// NumVars returns the LP variable count: columns plus y variables.
func (m *Model) NumVars() int { return len(m.Columns) + len(m.ParJobs) }

// Groups decodes a 0-1 column selection into a schedule.
func (m *Model) Groups(selected []int) [][]job.ProcID {
	groups := make([][]job.ProcID, 0, len(selected))
	for _, ci := range selected {
		groups = append(groups, append([]job.ProcID(nil), m.Columns[ci].Procs...))
	}
	return groups
}
