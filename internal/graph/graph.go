// Package graph implements the co-scheduling graph of §III-A: every node
// is a u-cardinality process set (one filled machine), nodes are organised
// into levels by their smallest process ID, and a co-scheduling solution
// is a valid path — one that visits each process exactly once — from the
// start to the end of the graph. The graph is never materialised: levels
// hold up to C(n-1, u-1) nodes, so node enumeration is lazy and the
// weight of a node is computed (and memoised via the degradation oracle)
// on first touch.
package graph

import (
	"fmt"
	"slices"

	"cosched/internal/comm"
	"cosched/internal/degradation"
	"cosched/internal/job"
)

// Graph binds a batch and its cost model into the co-scheduling graph.
type Graph struct {
	Batch *job.Batch
	Cost  *degradation.Cost

	// EnumLimit caps how many nodes a single level enumeration may
	// visit; levels beyond it are not exactly enumerable and callers
	// fall back to bounds. Zero means DefaultEnumLimit.
	EnumLimit int

	// cond[p-1] is process p's condensation identity (AppendCondenseKey).
	cond []condProc
}

// DefaultEnumLimit is the default per-level node enumeration budget.
const DefaultEnumLimit = 4_000_000

// New constructs the graph view for a batch/cost pair. patterns supplies
// the communication structure the condensation keys (§III-E) count; nil
// entries (or a nil map) mean no communication. The patterns must be
// valid for their jobs (comm.Pattern.Validate), as the oracles check.
func New(c *degradation.Cost, patterns map[job.JobID]*comm.Pattern) *Graph {
	g := &Graph{Batch: c.Batch, Cost: c}
	g.buildCondense(patterns)
	return g
}

// U returns the node cardinality (cores per machine).
func (g *Graph) U() int { return g.Batch.Cores }

// N returns the number of processes.
func (g *Graph) N() int { return g.Batch.NumProcs() }

// Binomial returns C(n, k) with saturation at math.MaxInt64/2 to keep
// feasibility checks overflow-safe.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const sat = int64(1) << 62
	r := int64(1)
	for i := 1; i <= k; i++ {
		f := int64(n - k + i)
		if r > sat/f {
			return sat // would overflow: saturate before multiplying
		}
		r = r * f / int64(i)
		if r >= sat {
			return sat
		}
	}
	return r
}

// ForEachNode enumerates the nodes led by leader whose co-members are
// drawn from avail (ascending process IDs, all greater than leader and not
// equal to it). Each node is passed as a full sorted u-slice that is
// reused between calls — copy it to retain it. fn returning false stops
// the enumeration.
func (g *Graph) ForEachNode(leader job.ProcID, avail []job.ProcID, fn func(node []job.ProcID) bool) {
	u := g.U()
	node := make([]job.ProcID, u)
	node[0] = leader
	if u == 1 {
		fn(node)
		return
	}
	r := u - 1
	if len(avail) < r {
		return
	}
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, ai := range idx {
			node[i+1] = avail[ai]
		}
		if !fn(node) {
			return
		}
		// advance the combination
		i := r - 1
		for i >= 0 && idx[i] == len(avail)-r+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Condensation key words (§III-E). A serial or padding member's word is
// its process ID. A parallel job's word packs
//
//	bit 63       condTag, never set in a process ID
//	bits 32..62  the job ID
//	bits 24..31  the job's rank count in the node
//	bits 16..23  external halo exchanges along dimension 0
//	bits  8..15  ... along dimension 1
//	bits  0..7   ... along dimension 2
//
// A job has at most u ranks in a node and each rank exchanges with at
// most two neighbours per dimension, so every field holds its count for
// u <= 127; comm.Pattern.Validate caps a pattern at 3 dimensions.
const (
	condTag      = 1 << 63
	condJobShift = 32
	condRankUnit = 1 << 24
)

// condProc is one process's condensation identity, built once by New.
type condProc struct {
	job int32          // parallel job ID; -1 for serial and padding processes
	nbs []condNeighbor // mesh neighbours, from the job's comm.Pattern
}

// condNeighbor is one halo-exchange partner of a parallel rank.
type condNeighbor struct {
	proc job.ProcID // the neighbouring rank's process
	unit uint64     // 1 in the exchange dimension's field of a job word
}

// buildCondense records every process's condensation identity: its
// parallel job, and its mesh neighbours as process IDs with their
// dimension, so keying a node needs no pattern arithmetic.
func (g *Graph) buildCondense(patterns map[job.JobID]*comm.Pattern) {
	b := g.Batch
	g.cond = make([]condProc, len(b.Procs))
	for i := range b.Procs {
		c := &g.cond[i]
		c.job = -1
		j := b.JobOf(b.Procs[i].ID)
		if j == nil || j.Kind == job.Serial {
			continue
		}
		c.job = int32(j.ID)
		for _, nb := range patterns[j.ID].Neighbors(b.Procs[i].Rank) {
			c.nbs = append(c.nbs, condNeighbor{proc: j.Procs[nb.Rank], unit: 1 << (16 - 8*nb.Dim)})
		}
	}
}

// AppendCondenseKey appends the communication-aware condensation key of a
// node (§III-E) to dst and returns it. Two nodes of a level condense when
// they contain the same serial jobs, the same number of processes per
// parallel job, and identical per-dimension counts of the halo exchanges
// each PC job's ranks in the node make with ranks outside it; their keys
// are equal exactly then.
//
// The key is len(node) words: one per serial or padding member, its
// process ID in node order; then one per distinct parallel job in job-ID
// order (see condTag); then zero padding. With a dst of capacity
// len(node) it allocates nothing.
func (g *Graph) AppendCondenseKey(dst []uint64, node []job.ProcID) []uint64 {
	end := len(dst) + len(node)
	for _, p := range node {
		if g.cond[p-1].job < 0 {
			dst = append(dst, uint64(p))
		}
	}
	jobs := len(dst)
	for _, p := range node {
		c := &g.cond[p-1]
		if c.job < 0 {
			continue
		}
		w := condTag | uint64(c.job)<<condJobShift | condRankUnit
		for _, nb := range c.nbs {
			if !slices.Contains(node, nb.proc) {
				w += nb.unit
			}
		}
		// Merge into the job's word, keeping job words in job-ID order:
		// the fields below condJobShift add without carrying.
		k := jobs
		for k < len(dst) && dst[k]>>condJobShift < w>>condJobShift {
			k++
		}
		if k < len(dst) && dst[k]>>condJobShift == w>>condJobShift {
			dst[k] += w & (1<<condJobShift - 1)
		} else {
			dst = slices.Insert(dst, k, w)
		}
	}
	for len(dst) < end {
		dst = append(dst, 0)
	}
	return dst
}

// NodeID formats a node the way the paper writes them: <1,2,...>.
func NodeID(node []job.ProcID) string {
	s := "<"
	for i, p := range node {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(int(p))
	}
	return s + ">"
}
