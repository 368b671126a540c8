package astar

import (
	"sync"
	"sync/atomic"
)

// stripedTable is the concurrent best-g table of the parallel engine
// (parsolve.go): the dismissal keyspace is split over power-of-two lock
// stripes by high hash bits, each stripe holding an independent gTable
// behind its own mutex. Expansion workers therefore contend only when
// two children hash into the same stripe, and the per-stripe critical
// sections are the same few-probe find/insert the sequential table runs.
//
// Entry references are (stripe, ref) pairs: a gTable never deletes or
// reorders entries, so both halves stay stable for the table's lifetime
// and elements cache them for the O(1) pop-staleness check. An element
// carries its key's hash, so no call hashes the key again.
type stripedTable struct {
	mask    uint64
	stripes []tableStripe
	// size is the sum of the stripes' gTable.bytes(), adjusted by each
	// insert under its stripe's lock; read lock-free by the memory-
	// footprint estimator.
	size atomic.Int64
}

// tableStripe pairs one gTable shard with its lock, padded out so
// neighbouring stripe locks do not share a cache line.
type tableStripe struct {
	mu sync.Mutex
	t  *gTable
	_  [40]byte
}

// newStripedTable builds a table of nStripes (a power of two) shards,
// each starting at a fraction of the sequential table's initial slot
// count so an idle parallel solve does not cost nStripes full tables.
func newStripedTable(stride, nStripes int) *stripedTable {
	st := &stripedTable{
		mask:    uint64(nStripes - 1),
		stripes: make([]tableStripe, nStripes),
	}
	for i := range st.stripes {
		st.stripes[i].t = newGTableSized(stride, 256)
		st.size.Add(st.stripes[i].t.bytes())
	}
	return st
}

// bytes estimates the table's storage for the memory footprint the way
// gTable.bytes does for the sequential table: every stripe's slots, key
// arena and per-entry best g and element pointer.
func (st *stripedTable) bytes() int64 {
	return st.size.Load()
}

// stripeOf maps a key hash to its stripe. The stripe index takes high
// hash bits so it stays independent of the low bits the in-stripe slot
// probe consumes (and of the frontier-shard bits, see parsolve.go).
func (st *stripedTable) stripeOf(h uint64) int32 {
	return int32((h >> 40) & st.mask)
}

// probe, admit and stale are the striped side of the best-g table
// contract (admit.go): each runs its stripe's gTable method under the
// stripe lock. The probe is optimistic, so admit probes again under the
// lock and reports false when another worker recorded the key at least
// as cheaply in between; the probe's ref hint goes unused.
func (st *stripedTable) probe(e *element) (int32, bool) {
	sp := &st.stripes[st.stripeOf(e.hash)]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.t.probe(e)
}

func (st *stripedTable) admit(e *element, _ int32) bool {
	stripe := st.stripeOf(e.hash)
	sp := &st.stripes[stripe]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ref, ok := sp.t.probe(e)
	if !ok {
		return false
	}
	before := sp.t.bytes()
	sp.t.admit(e, ref)
	st.size.Add(sp.t.bytes() - before)
	e.stripe = stripe
	return true
}

func (st *stripedTable) stale(e *element) bool {
	sp := &st.stripes[e.stripe]
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.t.stale(e)
}

// count returns the admitted keys across all stripes, for
// Stats.KeyTableEntries. Only called after the workers have joined.
func (st *stripedTable) count() int {
	n := 0
	for i := range st.stripes {
		n += st.stripes[i].t.count
	}
	return n
}

// loadAvg returns the entry-weighted mean slot occupancy across stripes,
// the parallel counterpart of gTable.load for Stats.KeyTableLoad. Only
// called after the workers have joined.
func (st *stripedTable) loadAvg() float64 {
	var slots int
	for i := range st.stripes {
		slots += len(st.stripes[i].t.slots)
	}
	if slots == 0 {
		return 0
	}
	return float64(st.count()) / float64(slots)
}

// newGTableSized is newGTable with a chosen initial slot count (a power
// of two); the striped table starts its shards small.
func newGTableSized(stride, slots int) *gTable {
	if stride < 1 {
		stride = 1
	}
	return &gTable{
		stride: stride,
		slots:  make([]int32, slots),
	}
}
