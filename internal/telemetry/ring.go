package telemetry

import "sync/atomic"

// Ring retains the last N values of type T without locks. A writer
// claims a global position with one atomic add and copies the value into
// a preallocated slot guarded by a per-slot sequence word (seqlock), so
// Put never blocks and never allocates (pointer and slice fields alias
// the caller's memory). Readers copy slots optimistically and drop any
// slot a concurrent writer touched mid-copy: a snapshot taken under load
// is a consistent, possibly shorter, window — never a torn value.
//
// FlightRecorder, a Ring of events, backs both the daemon's /debug/trace
// (solver and request events) and its /debug/requests (request records).
type Ring[T any] struct {
	slots []ringSlot[T]
	// head is the count of Put calls; value i lives in slot i mod N.
	head atomic.Uint64
}

// ringSlot pairs a value with its seqlock word. seq == 0 is empty; an odd
// value marks a write in progress; the even value 2*(pos+1) publishes the
// value written for global position pos, letting readers detect both torn
// reads and wrap-around overwrites.
type ringSlot[T any] struct {
	seq atomic.Uint64
	v   T
}

// NewRing returns a ring retaining the last n values (n < 1 is raised
// to 1).
func NewRing[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{slots: make([]ringSlot[T], n)}
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Len returns how many values are currently retained. It reads head
// once, so a concurrent Put can never push the result past Cap.
func (r *Ring[T]) Len() int {
	h := r.head.Load()
	if n := uint64(len(r.slots)); h > n {
		return int(n)
	}
	return int(h)
}

// Put records v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Put(v T) {
	pos := r.head.Add(1) - 1
	slot := &r.slots[pos%uint64(len(r.slots))]
	slot.seq.Store(2*pos + 1) // odd: write in progress
	slot.v = v
	slot.seq.Store(2 * (pos + 1)) // even: published for position pos
}

// Snapshot returns the retained values oldest first, skipping slots a
// concurrent writer had in flight. A copy that fails validation is
// dropped, not retried: its slot has been claimed for a newer position.
func (r *Ring[T]) Snapshot() []T {
	n := uint64(len(r.slots))
	h := r.head.Load()
	start := uint64(0)
	if h > n {
		start = h - n
	}
	out := make([]T, 0, h-start)
	for pos := start; pos < h; pos++ {
		slot := &r.slots[pos%n]
		want := 2 * (pos + 1)
		if slot.seq.Load() != want {
			continue // empty, mid-write, or already overwritten
		}
		v := slot.v
		if slot.seq.Load() == want {
			out = append(out, v)
		}
	}
	return out
}
