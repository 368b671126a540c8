package degradation

import (
	"slices"
	"sort"
	"sync"

	"cosched/internal/job"
)

// nodeMemoEntries bounds a Cost's node memo. When the table is full it is
// cleared, so one solve holds at most this many nodes however long it
// runs; a cleared node is recomputed on its next query, with the same
// answer.
const nodeMemoEntries = 1 << 17

// memoNodeMax is the largest node the memo key holds: 16-bit process IDs,
// four to a word.
const memoNodeMax = 8

// nodeKey is a node's sorted process IDs packed 16 bits each and
// zero-padded. IDs start at 1, so the padding is unambiguous and the key
// pins the whole node, its size included.
type nodeKey [memoNodeMax / 4]uint64

// nodeMemo maps a node to the effective degradation of each member
// against the rest, stored in ascending ID order at vals[index[key]:].
// One mutex guards it: the parallel search workers share one Cost.
type nodeMemo struct {
	mu    sync.Mutex
	limit int
	index map[nodeKey]int32
	vals  []float64
}

// get copies a cached node's values into out and reports whether the
// node was cached.
func (m *nodeMemo) get(key nodeKey, out []float64) bool {
	m.mu.Lock()
	off, ok := m.index[key]
	if ok {
		copy(out, m.vals[off:])
	}
	m.mu.Unlock()
	return ok
}

// put caches a node's values, clearing the table first when it is full.
func (m *nodeMemo) put(key nodeKey, vals []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.index == nil {
		m.index = make(map[nodeKey]int32)
	}
	if _, ok := m.index[key]; ok {
		return // another worker computed it first
	}
	if len(m.index) >= m.limit {
		clear(m.index)
		m.vals = m.vals[:0]
	}
	m.index[key] = int32(len(m.vals))
	m.vals = append(m.vals, vals...)
}

// sortNodeKey sorts node into sorted, records in at[i] the sorted position
// of node[i], and packs the key. It reports false for a node the key
// cannot hold: more than memoNodeMax members, or an ID outside 1..65535.
func sortNodeKey(node []job.ProcID, sorted *[memoNodeMax]job.ProcID, at *[memoNodeMax]int) (nodeKey, bool) {
	var key nodeKey
	if len(node) > memoNodeMax {
		return key, false
	}
	var idx [memoNodeMax]int
	for i, p := range node {
		if p < 1 || p > 0xFFFF {
			return key, false
		}
		j := i
		for ; j > 0 && node[idx[j-1]] > p; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = i
	}
	for j, i := range idx[:len(node)] {
		sorted[j] = node[i]
		at[i] = j
		key[j/4] |= uint64(node[i]) << (16 * uint(j%4))
	}
	return key, true
}

// NodeCosts appends to dst the effective degradation (ProcCost) of each
// member of node against the rest of it, in node order, and returns the
// extended slice. Answers come from the Cost's node memo, keyed by the
// node's sorted process IDs; a hit allocates nothing once dst has room.
// A node the key cannot hold is computed uncached.
func (c *Cost) NodeCosts(dst []float64, node []job.ProcID) []float64 {
	var sorted [memoNodeMax]job.ProcID
	var at [memoNodeMax]int
	key, ok := sortNodeKey(node, &sorted, &at)
	if !ok {
		return c.appendUncached(dst, node)
	}
	k := len(node)
	var vals [memoNodeMax]float64
	if !c.memo.get(key, vals[:k]) {
		c.computeSorted(vals[:k], sorted[:k])
		c.memo.put(key, vals[:k])
	}
	for i := range node {
		dst = append(dst, vals[at[i]])
	}
	return dst
}

// SortedNodeCosts appends to dst what NodeCosts returns for a node listed
// in ascending ID order, computed without the memo: for a caller that
// keeps every node it reads in a table of its own (graph.LevelTable), so
// the memo would only hold a second copy.
func (c *Cost) SortedNodeCosts(dst []float64, sorted []job.ProcID) []float64 {
	k := len(sorted)
	dst = slices.Grow(dst, k)
	c.computeSorted(dst[len(dst):len(dst)+k], sorted)
	return dst[:len(dst)+k]
}

// computeSorted fills out[j] with the effective degradation of sorted[j]
// against the rest of the node. Co-runners reach the oracle in ascending
// ID order, so an answer never depends on the order a caller listed the
// node in. The SDC oracle answers the whole node from one competition
// (SDCOracle.nodeCosts); any other oracle is asked member by member.
func (c *Cost) computeSorted(out []float64, sorted []job.ProcID) {
	if o, ok := c.Oracle.(*SDCOracle); ok {
		o.nodeCosts(out, sorted, c.Mode == ModePC)
		return
	}
	co := make([]job.ProcID, 0, len(sorted))
	for j, p := range sorted {
		co = append(co[:0], sorted[:j]...)
		co = append(co, sorted[j+1:]...)
		d := c.Oracle.Degradation(p, co)
		if c.Mode == ModePC {
			d += c.Oracle.CommDegradation(p, co)
		}
		out[j] = d
	}
}

// appendUncached is NodeCosts for a node the memo key cannot hold.
func (c *Cost) appendUncached(dst []float64, node []job.ProcID) []float64 {
	sorted := job.SortedProcIDs(node)
	vals := make([]float64, len(sorted))
	c.computeSorted(vals, sorted)
	for _, p := range node {
		dst = append(dst, vals[sort.Search(len(sorted), func(j int) bool { return sorted[j] >= p })])
	}
	return dst
}
