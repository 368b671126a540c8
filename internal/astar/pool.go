package astar

import (
	"sync/atomic"

	"cosched/internal/bitset"
	"cosched/internal/job"
)

// elemPool is a free list of search elements with their backing storage
// (bit set words, node slice, per-job maxima, key words) preallocated at
// the solver's fixed capacities. Under the Theorem-1 dismiss strategy the
// vast majority of generated children are discarded before ever entering
// the priority list; recycling them turns the per-child cost from several
// heap allocations into plain copies into warm storage.
//
// A pool is single-goroutine: the solver owns one, and so does each
// worker clone of the parallel engine and the parallel beam generator
// (workerClone in parsolve.go). Elements remember their owning pool, so
// the beam's serial merge — which runs on the solver goroutine after the
// generators have joined — can return a dismissed child to whichever
// worker produced it.
//
// Only never-admitted children (and stale popped elements, which were
// skipped without being expanded) are recycled: anything pushed into the
// priority list may be a parent on the winning path and stays live until
// the solver is garbage-collected, which is what keeps reconstruct safe
// without reference counting.
type elemPool struct {
	s     *Solver
	free  []*element
	gets  int64 // elements handed out
	reuse int64 // of those, served from the free list
	// allocCount, when non-nil, is additionally bumped on every fresh
	// allocation (the slow path only, so the warm 0-alloc path stays
	// counter-free). The parallel engine points every worker pool at one
	// shared atomic so its memory-footprint estimate can be read from
	// any goroutine without touching the unsynchronised gets/reuse pair.
	allocCount *atomic.Int64
}

// newPool creates a pool bound to the solver's capacities and registers
// it for end-of-solve stats aggregation.
func (s *Solver) newPool() *elemPool {
	p := &elemPool{s: s}
	s.allPools = append(s.allPools, p)
	return p
}

// get returns a reset element with all backing storage sized for the
// solver. Set contents, node, jobMax and keyWords are the caller's to
// fill; scalar fields are zeroed here.
func (p *elemPool) get() *element {
	p.gets++
	var e *element
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free = p.free[:n-1]
		p.reuse++
	} else {
		s := p.s
		e = &element{
			set:      bitset.New(s.n),
			node:     make([]job.ProcID, 0, s.u),
			keyWords: make([]uint64, 0, s.keyStride),
			home:     p,
		}
		if len(s.parJobs) > 0 {
			e.jobMax = make([]float64, 0, len(s.parJobs))
		}
		if p.allocCount != nil {
			p.allocCount.Add(1)
		}
	}
	e.q = 0
	e.g = 0
	e.h = 0
	e.hSerial = 0
	e.parent = nil
	e.keyRef = -1
	e.stripe = -1
	e.home = p
	return e
}

// put recycles an element. The caller must guarantee nothing references
// it (no heap entry, no child).
func (p *elemPool) put(e *element) {
	e.parent = nil
	p.free = append(p.free, e)
}

// recycle returns a dead element to its owning pool.
func (s *Solver) recycle(e *element) {
	if e.home != nil {
		e.home.put(e)
	}
}

// allocStats sums pool and key-table counters into st after a solve.
func (s *Solver) fillAllocStats(st *Stats) {
	for _, p := range s.allPools {
		st.ElemAllocated += p.gets - p.reuse
		st.ElemReused += p.reuse
	}
	if s.table != nil {
		st.KeyTableEntries = s.table.count
		st.KeyTableLoad = s.table.load()
	}
}
