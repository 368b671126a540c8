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
// and elements cache them for the O(1) pop-staleness check.
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

// bestG returns the recorded best distance for key, or ok=false when the
// key is absent. This is the optimistic pre-heuristic probe of the
// Theorem-1 dismissal: a racing improvement between this read and a
// later admit is re-checked under the stripe lock there.
func (st *stripedTable) bestG(key []uint64) (float64, bool) {
	sp := &st.stripes[st.stripeOf(hashKeyWords(key))]
	sp.mu.Lock()
	ref := sp.t.find(key)
	if ref < 0 {
		sp.mu.Unlock()
		return 0, false
	}
	g := sp.t.gs[ref]
	sp.mu.Unlock()
	return g, true
}

// admit records key at distance g if no same-key entry at least as cheap
// exists, returning the entry handle and whether the record was made
// (improved=false is the Theorem-1 dismissal of the caller's child).
func (st *stripedTable) admit(key []uint64, g float64) (stripe, ref int32, improved bool) {
	stripe = st.stripeOf(hashKeyWords(key))
	sp := &st.stripes[stripe]
	sp.mu.Lock()
	ref = sp.t.find(key)
	if ref >= 0 {
		if sp.t.gs[ref] <= g {
			sp.mu.Unlock()
			return stripe, ref, false
		}
		sp.t.gs[ref] = g
		sp.mu.Unlock()
		return stripe, ref, true
	}
	before := sp.t.bytes()
	ref = sp.t.insert(key, g, nil)
	st.size.Add(sp.t.bytes() - before)
	sp.mu.Unlock()
	return stripe, ref, true
}

// refG returns the current best distance of an admitted entry — the
// pop-staleness check: an element whose g exceeds this was superseded
// while queued.
func (st *stripedTable) refG(stripe, ref int32) float64 {
	sp := &st.stripes[stripe]
	sp.mu.Lock()
	g := sp.t.gs[ref]
	sp.mu.Unlock()
	return g
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
