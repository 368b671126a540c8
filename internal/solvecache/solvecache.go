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
// Internally the key space is split over lock-striped shards (by a hash
// of the key string), each an independent LRU+singleflight
// behind its own mutex, so a daemon running many solver workers does not
// serialise every request on one cache lock. Small capacities stay on a
// single shard, keeping the LRU eviction order exact where tests and
// tiny deployments can observe it; see New.
//
// Bounding is byte-accurate when Config.SizeOf is supplied: every
// resident entry is charged len(key) + SizeOf(value) bytes against
// Config.MaxBytes, split over the shards, and shards evict
// least-recently-used entries until back under their share. The legacy
// entry-count bound (Config.Capacity) composes with it — an entry is
// evicted when either bound is exceeded.
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

// Stats is a point-in-time snapshot of cache effectiveness counters,
// aggregated across shards. Hits + Misses + Shared equals the number of
// logical Get/Do calls: a Do that internally retried after a failed
// leader still contributes exactly one outcome, the one it returns (the
// retry rounds are counted separately under Retries).
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
	// (including entries rejected at store time because they exceed a
	// shard's entire byte share).
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

// nShards is the stripe count of a sharded cache (a power of two). 16
// keeps worst-case lock contention at 1/16th of a single mutex while
// costing only a few hundred spare bytes per idle shard.
const nShards = 16

// shardThreshold is the capacity below which the cache stays on a
// single shard: splitting a tiny capacity across 16 LRUs would make the
// effective eviction order depend on key hashes, and the contention a
// sub-64-entry deployment can generate does not need striping.
const shardThreshold = 64

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

// shard is one lock stripe of the cache: an independent LRU with its
// own singleflight table and effectiveness counters.
type shard[V any] struct {
	c         *Cache[V]
	mu        sync.Mutex
	m         map[string]*list.Element
	ll        *list.List // front = most recently used
	flights   map[string]*flight[V]
	capacity  int
	maxBytes  int64
	bytes     int64
	onEvict   func(key string)
	hits      int64
	misses    int64
	shared    int64
	evictions int64
}

// Cache is a concurrency-safe, capacity- and byte-bounded LRU with
// singleflight computation, striped over independent shards by key
// hash, optionally persisted to a spill-log directory. The zero value
// is not usable; construct with New or NewWithConfig.
type Cache[V any] struct {
	shards []*shard[V]
	mask   uint64
	sizeOf func(V) int

	// O(1) aggregates, maintained by the shards under their locks.
	bytesTotal   atomic.Int64
	entriesTotal atomic.Int64
	retries      atomic.Int64

	// Spill state. spillMu serialises appends against Close; the
	// replay-time counters are fixed at construction.
	spillMu       sync.Mutex
	spill         *spillLog
	spilled       atomic.Int64
	spillErrors   atomic.Int64
	replayed      int64
	replaySkipped int64
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
	// Capacity bounds the entry count (<= 0 means unbounded). The bound
	// is exact: shards split it with the remainder distributed, so the
	// summed shard capacities equal Capacity.
	Capacity int
	// MaxBytes bounds the resident byte charge (<= 0 means unbounded);
	// requires SizeOf. Each entry is charged len(key) + SizeOf(value).
	// An entry larger than an entire shard's byte share is rejected at
	// store time (reported as an immediate eviction) rather than
	// evicting the whole shard for nothing.
	MaxBytes int64
	// SizeOf reports a value's byte cost. Required when MaxBytes > 0;
	// without it Stats.Bytes stays zero.
	SizeOf func(V) int
	// OnEvict, if non-nil, is called — outside the cache lock — with
	// each key removed by a bound (including store-time rejections of
	// oversized entries, whose keys were never resident).
	OnEvict func(key string)
	// Spill, if non-nil, enables the disk spill (see SpillConfig).
	Spill *SpillConfig
}

// New returns a memory-only cache holding at most capacity entries
// (capacity <= 0 means unbounded). Capacities of shardThreshold and
// above — and the unbounded case — are striped over nShards shards;
// smaller capacities use a single shard so the LRU eviction order stays
// globally exact. The configured capacity is exact: the shard shares
// sum to it. onEvict, if non-nil, is called — outside the cache lock —
// with each key removed by the capacity bound.
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
	n := nShards
	if cfg.Capacity > 0 && cfg.Capacity < shardThreshold {
		n = 1
	}
	c := &Cache[V]{shards: make([]*shard[V], n), mask: uint64(n - 1), sizeOf: cfg.SizeOf}
	for i := range c.shards {
		cap := 0
		if cfg.Capacity > 0 {
			// Exact split: the first Capacity%n shards take the
			// remainder, so the shard bounds sum to Capacity (a plain
			// ceil would let a 65-entry cache hold 80).
			cap = cfg.Capacity / n
			if i < cfg.Capacity%n {
				cap++
			}
		}
		var maxB int64
		if cfg.MaxBytes > 0 {
			maxB = cfg.MaxBytes / int64(n)
			if int64(i) < cfg.MaxBytes%int64(n) {
				maxB++
			}
		}
		c.shards[i] = &shard[V]{
			c:        c,
			m:        make(map[string]*list.Element),
			ll:       list.New(),
			flights:  make(map[string]*flight[V]),
			capacity: cap,
			maxBytes: maxB,
			onEvict:  cfg.OnEvict,
		}
	}
	if cfg.Spill != nil {
		if err := c.attachSpill(cfg.Spill); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// shardFor routes a key to its stripe (FNV-1a over the key bytes).
func (c *Cache[V]) shardFor(key string) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h&c.mask]
}

// Get returns the cached value for key, refreshing its recency.
//
// Stats contract: every Get counts one outcome (a hit or a miss), just
// like Do. A caller that probes Get before calling Do for the same
// request therefore counts two outcomes for one logical lookup and
// skews hit-rate metrics — use a single Do per request instead.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.hits++
	s.ll.MoveToFront(e)
	v := e.Value.(*entry[V]).v
	s.mu.Unlock()
	return v, true
}

// Put stores a value under key (refreshing recency if it already
// exists), evicts the shard's least-recently-used entries beyond its
// capacity and byte shares, and appends the entry to the spill log when
// one is configured. Put itself counts no outcome.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shardFor(key)
	s.mu.Lock()
	evicted := s.putLocked(key, v)
	s.mu.Unlock()
	s.notifyEvicted(evicted)
	c.spillAppend(key, v)
}

// putLocked inserts or refreshes an entry and applies both bounds,
// returning the evicted keys for out-of-lock notification.
func (s *shard[V]) putLocked(key string, v V) []string {
	var cost int64
	if s.c.sizeOf != nil {
		cost = int64(len(key)) + int64(s.c.sizeOf(v))
	}
	if e, ok := s.m[key]; ok {
		ent := e.Value.(*entry[V])
		s.bytes += cost - ent.cost
		s.c.bytesTotal.Add(cost - ent.cost)
		ent.v, ent.cost = v, cost
		s.ll.MoveToFront(e)
		return s.evictLocked(nil)
	}
	if s.maxBytes > 0 && cost > s.maxBytes {
		// Bigger than this shard's entire byte share: storing it would
		// evict every co-resident entry and then itself. Reject at the
		// door, reported as an immediate eviction of the new key.
		s.evictions++
		return []string{key}
	}
	s.m[key] = s.ll.PushFront(&entry[V]{key: key, v: v, cost: cost})
	s.bytes += cost
	s.c.bytesTotal.Add(cost)
	s.c.entriesTotal.Add(1)
	return s.evictLocked(nil)
}

// evictLocked removes LRU entries until the shard satisfies both its
// entry and byte bounds, appending the removed keys to evicted.
func (s *shard[V]) evictLocked(evicted []string) []string {
	for (s.capacity > 0 && s.ll.Len() > s.capacity) ||
		(s.maxBytes > 0 && s.bytes > s.maxBytes) {
		back := s.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*entry[V])
		s.ll.Remove(back)
		delete(s.m, ent.key)
		s.bytes -= ent.cost
		s.c.bytesTotal.Add(-ent.cost)
		s.c.entriesTotal.Add(-1)
		s.evictions++
		evicted = append(evicted, ent.key)
	}
	return evicted
}

func (s *shard[V]) notifyEvicted(keys []string) {
	if s.onEvict == nil {
		return
	}
	for _, k := range keys {
		s.onEvict(k)
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
	s := c.shardFor(key)
	var outcome Outcome // decided, and counted, on the first round
	for attempt := 1; ; attempt++ {
		s.mu.Lock()
		if e, ok := s.m[key]; ok {
			if attempt == 1 {
				s.hits++
				outcome = Hit
			}
			s.ll.MoveToFront(e)
			v := e.Value.(*entry[V]).v
			s.mu.Unlock()
			return v, outcome, nil
		}
		if f, ok := s.flights[key]; ok && attempt < maxDoAttempts {
			if attempt == 1 {
				s.shared++
				outcome = Shared
			}
			s.mu.Unlock()
			<-f.done
			if f.retry {
				// The leader failed, and its failure is its own: run
				// another round — as a fresh waiter or the new leader.
				c.retries.Add(1)
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
			s.flights[key] = f
		}
		if attempt == 1 {
			s.misses++
			outcome = Miss
		}
		s.mu.Unlock()
		v, err := c.lead(s, key, f, compute)
		return v, outcome, err
	}
}

// lead runs compute as the flight leader (or alone, past the retry
// budget, when f is nil), stores cacheable results, and settles the
// flight — telling waiters to retry when compute failed or panicked.
func (c *Cache[V]) lead(s *shard[V], key string, f *flight[V], compute func() (V, bool, error)) (v V, err error) {
	var ok, completed bool
	defer func() {
		stored := completed && ok && err == nil
		s.mu.Lock()
		var evicted []string
		if stored {
			evicted = s.putLocked(key, v)
		}
		if f != nil {
			delete(s.flights, key)
			f.v, f.retry = v, !completed || err != nil
		}
		s.mu.Unlock()
		s.notifyEvicted(evicted)
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

// Len returns the current entry count across all shards (O(1)).
func (c *Cache[V]) Len() int {
	return int(c.entriesTotal.Load())
}

// Bytes returns the resident byte charge across all shards (O(1); zero
// for unsized caches).
func (c *Cache[V]) Bytes() int64 {
	return c.bytesTotal.Load()
}

// Retries returns the singleflight retry rounds run so far (O(1); see
// Stats.Retries).
func (c *Cache[V]) Retries() int64 {
	return c.retries.Load()
}

// Spilled returns the entries appended to the spill log so far (O(1);
// see Stats.Spilled).
func (c *Cache[V]) Spilled() int64 {
	return c.spilled.Load()
}

// Stats snapshots the effectiveness counters, summed across shards.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Retries:       c.retries.Load(),
		Bytes:         c.bytesTotal.Load(),
		Replayed:      c.replayed,
		ReplaySkipped: c.replaySkipped,
		Spilled:       c.spilled.Load(),
		SpillErrors:   c.spillErrors.Load(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Shared += s.shared
		st.Evictions += s.evictions
		st.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}
