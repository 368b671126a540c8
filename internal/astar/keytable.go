package astar

import (
	"math"
	"math/bits"

	"cosched/internal/bitset"
)

// This file implements the word-packed dismissal bookkeeping of the
// search hot path. The paper's Theorem-1 dismissal needs, per generated
// child, one lookup of "cheapest recorded distance for this process set";
// the original implementation built a string key (a byte copy of the set,
// plus PE-symmetry counts and — under ExactParallel — the per-job maxima)
// and probed a map[string]float64, costing two heap allocations and a
// byte-wise hash per child. Here the key stays in its natural form — a
// fixed-stride []uint64 — and the table is a linear-probing open-addressing
// hash over those words directly, so a dismissed child (the vast majority)
// touches no heap at all.
//
// Key layout (fixed per solver, s.keyStride words):
//
//	[0, setWords)              set words; PE bits masked out when
//	                           symmetry canonicalisation is active
//	[setWords, +countWords)    per-PE-job scheduled-rank counts, one byte
//	                           each, packed little-endian 8 per word
//	[.., +jobWords)            ExactParallel only: Float64bits of the
//	                           per-parallel-job running maxima
//
// The byte image of this layout is the legacy string key with zero
// padding at fixed offsets, so key equality — and byte-lexicographic
// order, which the beam search's deterministic tie-break relies on — are
// preserved exactly (see compareKeyWords and the equivalence property
// test in keytable_test.go).

// packKey appends the dismissal key of (set, jobMax) to dst and returns
// it. dst should have capacity s.keyStride to stay allocation-free.
func (s *Solver) packKey(dst []uint64, set *bitset.Set, jobMax []float64) []uint64 {
	dst = set.AppendWords(dst, s.peAll)
	if s.peAll != nil {
		var w uint64
		for i, jm := range s.peJobMask {
			w |= uint64(byte(set.IntersectCount(jm))) << (8 * uint(i&7))
			if i&7 == 7 {
				dst = append(dst, w)
				w = 0
			}
		}
		if len(s.peJobMask)&7 != 0 {
			dst = append(dst, w)
		}
	}
	if s.keyJobWords > 0 {
		for _, v := range jobMax {
			dst = append(dst, math.Float64bits(v))
		}
	}
	return dst
}

// hashKeyWords mixes the key words splitmix64-style. The mixer only has
// to spread the low bits (the table mask takes them); the multiply-xor
// rounds of splitmix64 do that well for the sparse, low-entropy words a
// process set produces.
func hashKeyWords(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// compareKeyWords orders two equal-stride keys identically to the
// byte-lexicographic order of the legacy string keys: each word holds 8
// little-endian bytes, so byte order within a word is the big-endian
// (byte-reversed) numeric order.
func compareKeyWords(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if bits.ReverseBytes64(a[i]) < bits.ReverseBytes64(b[i]) {
				return -1
			}
			return 1
		}
	}
	return 0
}

// gTable is the open-addressing best-g table: one entry per distinct
// dismissal key, holding the cheapest recorded sub-path distance and —
// for the beam search — the element that achieved it. Entries live in a
// flat arena (keys at entry*stride) and are never deleted; slots hold
// entry index + 1 with 0 meaning empty.
type gTable struct {
	stride int
	slots  []int32
	keys   []uint64
	gs     []float64
	elems  []*element
	count  int
}

const gTableInitSlots = 1 << 10

func newGTable(stride int) *gTable {
	if stride < 1 {
		stride = 1 // capacity-0 batches still need a root entry
	}
	return &gTable{
		stride: stride,
		slots:  make([]int32, gTableInitSlots),
	}
}

// reset empties the table, keeping its storage (beam search reuses one
// table across depths).
func (t *gTable) reset() {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.keys = t.keys[:0]
	t.gs = t.gs[:0]
	t.elems = t.elems[:0]
	t.count = 0
}

// bytes estimates the table's storage for the memory footprint: its
// slots, its key arena, and each entry's best g and element pointer.
func (t *gTable) bytes() int64 {
	return int64(len(t.slots))*4 + int64(len(t.keys))*8 + int64(t.count)*16
}

// key returns the stored key words of entry ei.
func (t *gTable) key(ei int32) []uint64 {
	off := int(ei) * t.stride
	return t.keys[off : off+t.stride]
}

// find returns the entry index for key, whose hashKeyWords is h, or -1
// when absent. The index is stable for the table's lifetime (entries are
// never deleted), so elements cache it for the O(1) pop-staleness check.
func (t *gTable) find(key []uint64, h uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for {
		ref := t.slots[i]
		if ref == 0 {
			return -1
		}
		ei := ref - 1
		off := int(ei) * t.stride
		stored := t.keys[off : off+t.stride]
		match := true
		for j, w := range key {
			if stored[j] != w {
				match = false
				break
			}
		}
		if match {
			return ei
		}
		i = (i + 1) & mask
	}
}

// insert adds a new entry for key (which must be absent), whose
// hashKeyWords is h, and returns its index. The key words are copied
// into the arena.
func (t *gTable) insert(key []uint64, h uint64, g float64, e *element) int32 {
	if (t.count+1)*4 >= len(t.slots)*3 {
		t.grow()
	}
	ei := int32(t.count)
	t.keys = append(t.keys, key...)
	t.gs = append(t.gs, g)
	t.elems = append(t.elems, e)
	t.count++
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = ei + 1
	return ei
}

// grow doubles the slot array and re-places every entry.
func (t *gTable) grow() {
	slots := make([]int32, len(t.slots)*2)
	mask := uint64(len(slots) - 1)
	for ei := 0; ei < t.count; ei++ {
		off := ei * t.stride
		i := hashKeyWords(t.keys[off:off+t.stride]) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(ei) + 1
	}
	t.slots = slots
}

// probe, admit and stale are gTable's side of the best-g table contract
// (admit.go), for the sequential engine and each stripe of the parallel
// one: no lock, and admit trusts the probe that just ran.
func (t *gTable) probe(e *element) (int32, bool) {
	ref := t.find(e.keyWords, e.hash)
	return ref, ref < 0 || t.gs[ref] > e.g
}

func (t *gTable) admit(e *element, ref int32) bool {
	if ref >= 0 {
		t.gs[ref] = e.g
	} else {
		ref = t.insert(e.keyWords, e.hash, e.g, nil)
	}
	e.keyRef = ref
	return true
}

func (t *gTable) stale(e *element) bool {
	return t.gs[e.keyRef] < e.g
}

// load returns the slot occupancy in [0,1], surfaced in Stats.
func (t *gTable) load() float64 {
	if len(t.slots) == 0 {
		return 0
	}
	return float64(t.count) / float64(len(t.slots))
}

// wordSet is a membership-only sibling of gTable: a linear-probing set of
// fixed-stride word keys, reset and reused across expansions. The
// anchored candidate generator dedups emitted nodes (packed 16 bits per
// process) in one, and forEachCandidate dedups condensation keys
// (graph.AppendCondenseKey) in another.
type wordSet struct {
	stride int
	slots  []int32
	keys   []uint64
	count  int
}

func newWordSet(stride int) *wordSet {
	if stride < 1 {
		stride = 1
	}
	return &wordSet{stride: stride, slots: make([]int32, 1<<8)}
}

// reset empties the set, keeping its storage for the next expansion.
func (w *wordSet) reset() {
	for i := range w.slots {
		w.slots[i] = 0
	}
	w.keys = w.keys[:0]
	w.count = 0
}

// add inserts key and reports whether it was absent.
func (w *wordSet) add(key []uint64) bool {
	if (w.count+1)*4 >= len(w.slots)*3 {
		w.grow()
	}
	mask := uint64(len(w.slots) - 1)
	i := hashKeyWords(key) & mask
	for {
		ref := w.slots[i]
		if ref == 0 {
			break
		}
		off := int(ref-1) * w.stride
		stored := w.keys[off : off+w.stride]
		match := true
		for j, kw := range key {
			if stored[j] != kw {
				match = false
				break
			}
		}
		if match {
			return false
		}
		i = (i + 1) & mask
	}
	w.keys = append(w.keys, key...)
	w.count++
	w.slots[i] = int32(w.count)
	return true
}

func (w *wordSet) grow() {
	slots := make([]int32, len(w.slots)*2)
	mask := uint64(len(slots) - 1)
	for ei := 0; ei < w.count; ei++ {
		off := ei * w.stride
		i := hashKeyWords(w.keys[off:off+w.stride]) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(ei) + 1
	}
	w.slots = slots
}
