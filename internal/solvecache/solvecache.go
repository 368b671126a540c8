// Package solvecache provides the serving daemon's solved-schedule
// cache: a byte- and capacity-bounded LRU keyed by request (workload
// key, options fingerprint, endpoint), with singleflight deduplication
// so that concurrent requests for the same schedule run the solver once
// and share the result, and an optional write-behind disk spill so a
// daemon restarted against the same directory keeps its hit rate.
//
// The cache is value-agnostic (a type parameter) and policy-free: the
// caller decides what is cacheable — the daemon only stores proven,
// non-degraded schedules — by returning ok=false from the compute
// callback of Do.
//
// One mutex guards one LRU list and one singleflight table, so the
// eviction order is exact: the least-recently-used entry of the whole
// cache is always the next to go. A hit holds the lock only for a map
// lookup and a list move.
//
// Bounding is byte-accurate when Config.SizeOf is supplied: every
// resident entry is charged len(key) + SizeOf(value) bytes against
// Config.MaxBytes, and the LRU tail is evicted until the cache is back
// under it. The entry-count bound (Config.Capacity) composes with it —
// an entry is evicted when either bound is exceeded. An entry is
// refused only when it alone exceeds MaxBytes.
//
// Persistence (Config.Spill) appends every stored entry, its value as
// JSON, to a length-prefixed, checksummed segment log (see codec.go and
// spill.go); constructing a cache over the same directory replays the
// valid records to pre-warm the LRU. Corrupt or version-skewed records
// are skipped, and a crash-torn tail is truncated, never trusted.
package solvecache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Outcome classifies how a Do call obtained its value.
type Outcome int

// Do outcomes, in increasing order of luck: the caller computed the
// value itself, waited for a concurrent caller's computation, or got an
// instant cached copy.
const (
	Miss Outcome = iota
	Shared
	Hit
)

// String names the outcome for logs and metrics labels.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Shared:
		return "shared"
	case Hit:
		return "hit"
	default:
		return "unknown"
	}
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
// Hits + Misses + Shared equals the number of logical Get/Do calls: a
// Do that internally retried after a failed leader still contributes
// exactly one outcome, the one it returns (the retry rounds are counted
// separately under Retries).
type Stats struct {
	// Hits counts Do/Get calls answered from the cache.
	Hits int64
	// Misses counts Do/Get calls that found no entry.
	Misses int64
	// Shared counts Do calls that waited on another caller's in-flight
	// computation instead of running their own.
	Shared int64
	// Retries counts the extra singleflight rounds Do callers ran after
	// a flight leader failed (returned an error or panicked). Retried
	// calls keep their original outcome classification, so Retries is
	// additional work, not an additional outcome.
	Retries int64
	// Evictions counts entries removed by the capacity or byte bound
	// (including entries refused at store time because they alone
	// exceed MaxBytes).
	Evictions int64
	// Entries is the current cache population.
	Entries int
	// Bytes is the resident-set charge of the current population:
	// len(key) + SizeOf(value) summed over entries. Zero when the cache
	// was built without a SizeOf function.
	Bytes int64
	// Replayed counts entries pre-warmed from the spill log at
	// construction; ReplaySkipped the log records dropped during that
	// replay (corrupt, version-skewed, torn tail, or undecodable
	// values). Both are zero for caches without a spill.
	Replayed      int64
	ReplaySkipped int64
	// Spilled counts entries appended to the spill log since
	// construction (replay and compaction rewrites excluded);
	// SpillErrors the appends dropped because encoding or the log write
	// failed. Spill failures never fail the store — the entry stays
	// resident, only its persistence is lost.
	Spilled     int64
	SpillErrors int64
}

// maxDoAttempts bounds the singleflight rounds of one Do call: the
// initial round plus up to maxDoAttempts-1 retries after failed
// leaders. A caller that exhausts the budget computes alone, outside
// the flight table, so repeatedly-failing computations can never
// recurse Do unboundedly.
const maxDoAttempts = 4

// entry is one cached key/value pair, stored as a list.Element value so
// recency updates are pointer moves. cost is the entry's byte charge at
// store time (0 when the cache is unsized).
type entry[V any] struct {
	key  string
	v    V
	cost int64
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done  chan struct{}
	v     V
	retry bool // leader failed: waiters recompute
}

// Cache is a concurrency-safe, capacity- and byte-bounded LRU with
// singleflight computation, optionally persisted to a spill-log
// directory. The zero value is not usable; construct with New or
// NewWithConfig.
type Cache[V any] struct {
	capacity int
	maxBytes int64
	sizeOf   func(V) int
	onEvict  func(key string)

	// mu guards the LRU, the flight table and st, whose Entries,
	// Spilled and SpillErrors Stats fills in at snapshot time.
	mu      sync.Mutex
	m       map[string]*list.Element
	ll      *list.List // front = most recently used
	flights map[string]*flight[V]
	st      Stats

	// Spill state. spillMu serialises appends against Close.
	spillMu     sync.Mutex
	spill       *spillLog
	spilled     atomic.Int64
	spillErrors atomic.Int64
}

// SpillConfig enables the write-behind disk spill: stored entries are
// appended to a segment log under Dir, each value as its encoding/json
// form, and constructing a cache over the same directory replays the log
// to pre-warm the LRU (see spill.go for the on-disk format and
// crash-tolerance rules). A value that does not marshal is kept resident
// but not persisted (Stats.SpillErrors); a record whose value does not
// unmarshal is skipped at replay (Stats.ReplaySkipped).
type SpillConfig struct {
	// Dir is the spill directory, created if missing. One cache owns a
	// directory at a time; there is no cross-process locking.
	Dir string
	// SegmentBytes caps each segment file before the log rotates to a
	// fresh one (<= 0 means 4 MiB). A sealed segment is fsync'd; only
	// the active tail can be crash-torn.
	SegmentBytes int64
}

// Config sizes a cache for NewWithConfig. At least one bound (Capacity
// or MaxBytes) should be set for a long-running process; a zero Config
// is a valid unbounded, unsized, memory-only cache.
type Config[V any] struct {
	// Capacity bounds the entry count (<= 0 means unbounded).
	Capacity int
	// MaxBytes bounds the resident byte charge (<= 0 means unbounded);
	// requires SizeOf. Each entry is charged len(key) + SizeOf(value).
	// An entry that alone exceeds MaxBytes is refused at store time
	// (reported as an immediate eviction, and never spilled) rather than
	// evicting the whole cache for nothing.
	MaxBytes int64
	// SizeOf reports a value's byte cost. Required when MaxBytes > 0;
	// without it Stats.Bytes stays zero.
	SizeOf func(V) int
	// OnEvict, if non-nil, is called — outside the cache lock — with
	// each key removed by a bound (including store-time refusals of
	// oversized entries, which drop any older value under the key).
	OnEvict func(key string)
	// Spill, if non-nil, enables the disk spill (see SpillConfig).
	Spill *SpillConfig
}

// New returns a memory-only cache holding at most capacity entries
// (capacity <= 0 means unbounded). onEvict, if non-nil, is called —
// outside the cache lock — with each key removed by the capacity bound.
func New[V any](capacity int, onEvict func(key string)) *Cache[V] {
	c, err := NewWithConfig(Config[V]{Capacity: capacity, OnEvict: onEvict})
	if err != nil {
		// Unreachable: only spill and bound-validation paths error, and
		// this configuration uses neither.
		panic(err)
	}
	return c
}

// NewWithConfig builds a cache from cfg, replaying the spill log (when
// configured) to pre-warm the LRU before returning. Replay skips — and
// physically truncates, for the crash-torn tail — records that fail
// validation; it never fails the construction. Errors are limited to
// invalid configurations and an unusable spill directory.
func NewWithConfig[V any](cfg Config[V]) (*Cache[V], error) {
	if cfg.MaxBytes > 0 && cfg.SizeOf == nil {
		return nil, fmt.Errorf("solvecache: MaxBytes requires a SizeOf function")
	}
	if cfg.Spill != nil && cfg.Spill.Dir == "" {
		return nil, fmt.Errorf("solvecache: spill requires a directory")
	}
	c := &Cache[V]{
		capacity: cfg.Capacity,
		maxBytes: cfg.MaxBytes,
		sizeOf:   cfg.SizeOf,
		onEvict:  cfg.OnEvict,
		m:        make(map[string]*list.Element),
		ll:       list.New(),
		flights:  make(map[string]*flight[V]),
	}
	if cfg.Spill != nil {
		if err := c.attachSpill(cfg.Spill); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Get returns the cached value for key, refreshing its recency.
//
// Stats contract: every Get counts one outcome (a hit or a miss), just
// like Do. A caller that probes Get before calling Do for the same
// request therefore counts two outcomes for one logical lookup and
// skews hit-rate metrics — use a single Do per request instead.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.st.Misses++
		var zero V
		return zero, false
	}
	c.st.Hits++
	c.ll.MoveToFront(e)
	return e.Value.(*entry[V]).v, true
}

// Put stores a value under key (refreshing recency if it already
// exists), evicts the least-recently-used entries beyond the capacity
// and byte bounds, and appends the entry to the spill log when one is
// configured and the entry was stored. Put itself counts no outcome.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	evicted, stored := c.putLocked(key, v)
	c.mu.Unlock()
	c.notifyEvicted(evicted)
	if stored {
		c.spillAppend(key, v)
	}
}

// putLocked inserts or refreshes an entry and applies both bounds,
// returning the evicted keys for out-of-lock notification and whether
// the entry was stored: one bigger than MaxBytes is refused, and a
// refused entry is never spilled, so no restart replays it.
func (c *Cache[V]) putLocked(key string, v V) (evicted []string, stored bool) {
	var cost int64
	if c.sizeOf != nil {
		cost = int64(len(key)) + int64(c.sizeOf(v))
	}
	e, ok := c.m[key]
	if c.maxBytes > 0 && cost > c.maxBytes {
		// Bigger than the whole budget: storing it would evict every
		// other entry and then itself. Refuse it at the door, along with
		// any older value under its key, reported as an immediate
		// eviction of the key.
		if ok {
			c.removeLocked(e)
		}
		c.st.Evictions++
		return []string{key}, false
	}
	if ok {
		ent := e.Value.(*entry[V])
		c.st.Bytes += cost - ent.cost
		ent.v, ent.cost = v, cost
		c.ll.MoveToFront(e)
	} else {
		c.m[key] = c.ll.PushFront(&entry[V]{key: key, v: v, cost: cost})
		c.st.Bytes += cost
	}
	for (c.capacity > 0 && c.ll.Len() > c.capacity) || (c.maxBytes > 0 && c.st.Bytes > c.maxBytes) {
		evicted = append(evicted, c.removeLocked(c.ll.Back()))
		c.st.Evictions++
	}
	return evicted, true
}

// removeLocked drops a resident entry and returns its key.
func (c *Cache[V]) removeLocked(e *list.Element) string {
	ent := c.ll.Remove(e).(*entry[V])
	delete(c.m, ent.key)
	c.st.Bytes -= ent.cost
	return ent.key
}

func (c *Cache[V]) notifyEvicted(keys []string) {
	if c.onEvict == nil {
		return
	}
	for _, k := range keys {
		c.onEvict(k)
	}
}

// Do returns the value for key, computing it at most once across
// concurrent callers. On a cache hit the computation never runs. On a
// miss, exactly one caller runs compute while the rest block and share
// its value; compute's ok return decides whether the value is stored
// (uncacheable values are handed to their callers but never cached, so
// a later Do computes again). Waiters share a leader's value, never its
// failure: when compute returns an error or panics, the error or panic
// goes to the leader alone and each waiter runs another round of its
// own — the flight is cleaned up either way, so a failure never wedges
// the key.
//
// Stats contract: every Do counts exactly one outcome (hit, miss or
// shared), decided on its first round, and returns that outcome; the
// retry rounds after a failed leader are counted under Stats.Retries
// instead of inflating the outcome counters. Retries are bounded: after
// maxDoAttempts rounds a caller runs compute alone, outside the flight
// table, so a repeatedly-failing computation terminates instead of
// recursing.
func (c *Cache[V]) Do(key string, compute func() (V, bool, error)) (V, Outcome, error) {
	var outcome Outcome // decided, and counted, on the first round
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		if attempt > 1 {
			c.st.Retries++
		}
		if e, ok := c.m[key]; ok {
			if attempt == 1 {
				c.st.Hits++
				outcome = Hit
			}
			c.ll.MoveToFront(e)
			v := e.Value.(*entry[V]).v
			c.mu.Unlock()
			return v, outcome, nil
		}
		if f, ok := c.flights[key]; ok && attempt < maxDoAttempts {
			if attempt == 1 {
				c.st.Shared++
				outcome = Shared
			}
			c.mu.Unlock()
			<-f.done
			if f.retry {
				// The leader failed, and its failure is its own: run
				// another round — as a fresh waiter or the new leader.
				continue
			}
			return f.v, outcome, nil
		}
		// Leader path. Past the retry budget the flight table is left
		// untouched (f == nil): the caller computes alone, bounding the
		// damage a failing compute can do to its waiters.
		var f *flight[V]
		if attempt < maxDoAttempts {
			f = &flight[V]{done: make(chan struct{})}
			c.flights[key] = f
		}
		if attempt == 1 {
			c.st.Misses++
			outcome = Miss
		}
		c.mu.Unlock()
		v, err := c.lead(key, f, compute)
		return v, outcome, err
	}
}

// lead runs compute as the flight leader (or alone, past the retry
// budget, when f is nil), stores cacheable results, and settles the
// flight — telling waiters to retry when compute failed or panicked.
func (c *Cache[V]) lead(key string, f *flight[V], compute func() (V, bool, error)) (v V, err error) {
	var ok, completed bool
	defer func() {
		var evicted []string
		stored := false
		c.mu.Lock()
		if completed && ok && err == nil {
			evicted, stored = c.putLocked(key, v)
		}
		if f != nil {
			delete(c.flights, key)
			f.v, f.retry = v, !completed || err != nil
		}
		c.mu.Unlock()
		c.notifyEvicted(evicted)
		if f != nil {
			close(f.done)
		}
		if stored {
			c.spillAppend(key, v)
		}
	}()
	v, ok, err = compute()
	completed = true
	return v, err
}

// Stats snapshots the effectiveness counters and the resident set
// (O(1): one lock, no walk).
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	st := c.st
	st.Entries = c.ll.Len()
	c.mu.Unlock()
	st.Spilled = c.spilled.Load()
	st.SpillErrors = c.spillErrors.Load()
	return st
}
