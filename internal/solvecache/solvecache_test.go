package solvecache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEviction(t *testing.T) {
	var evicted []string
	c := New[int](2, func(key string) { evicted = append(evicted, key) })
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes coldest
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want LRU out")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted; want MRU kept")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Errorf("onEvict saw %v; want [b]", evicted)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("Stats = %+v; want Evictions 1, Entries 2", st)
	}
}

func TestDoCachesOnlyOKResults(t *testing.T) {
	c := New[string](0, nil)

	calls := 0
	uncacheable := func() (string, bool, error) { calls++; return "degraded", false, nil }
	for i := 0; i < 2; i++ {
		v, out, err := c.Do("k", uncacheable)
		if v != "degraded" || out != Miss || err != nil {
			t.Fatalf("Do #%d = (%q, %v, %v); want degraded/miss/nil", i, v, out, err)
		}
	}
	if calls != 2 {
		t.Errorf("uncacheable compute ran %d times; want 2 (never cached)", calls)
	}

	boom := errors.New("boom")
	failing := func() (string, bool, error) { return "", true, boom }
	if _, _, err := c.Do("e", failing); err != boom {
		t.Fatalf("Do error = %v; want boom", err)
	}
	if _, ok := c.Get("e"); ok {
		t.Error("failed computation was cached")
	}

	good := func() (string, bool, error) { calls = 100; return "proved", true, nil }
	if v, out, _ := c.Do("k", good); v != "proved" || out != Miss {
		t.Fatalf("Do = (%q, %v); want proved/miss", v, out)
	}
	if v, out, _ := c.Do("k", good); v != "proved" || out != Hit {
		t.Fatalf("cached Do = (%q, %v); want proved/hit", v, out)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New[int](0, nil)
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	var leaderOutcomes, sharedOutcomes atomic.Int64
	leaderCompute := func() (int, bool, error) {
		computes.Add(1)
		close(started)
		<-release
		return 42, true, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, out, _ := c.Do("k", leaderCompute)
		if v != 42 {
			t.Errorf("leader got %d; want 42", v)
		}
		if out == Miss {
			leaderOutcomes.Add(1)
		}
	}()
	<-started

	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, _ := c.Do("k", func() (int, bool, error) {
				computes.Add(1)
				return -1, true, nil
			})
			if v != 42 {
				t.Errorf("waiter got %d; want 42", v)
			}
			if out == Shared {
				sharedOutcomes.Add(1)
			}
		}()
	}
	// Hold the leader's flight open until every waiter has joined it —
	// the shared counter increments before a waiter blocks — so each
	// waiter observably shares rather than racing to a post-release Hit.
	for c.Stats().Shared < 8 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times across 9 concurrent callers; want 1", got)
	}
	if leaderOutcomes.Load() != 1 {
		t.Error("leader did not report Miss")
	}
	if got := sharedOutcomes.Load(); got != 8 {
		t.Errorf("%d waiters reported Shared; want 8", got)
	}
}

func TestDoPanicDoesNotWedgeKey(t *testing.T) {
	c := New[int](0, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Do("k", func() (int, bool, error) { panic("kaboom") }) //nolint:errcheck
	}()
	v, out, err := c.Do("k", func() (int, bool, error) { return 7, true, nil })
	if v != 7 || out != Miss || err != nil {
		t.Fatalf("Do after panic = (%d, %v, %v); want 7/miss/nil", v, out, err)
	}
}

// TestShardSelection pins the sharding policy: capacities below the
// threshold get one shard (globally exact LRU order), the threshold and
// above — and unbounded — get the full stripe set with the capacity
// split in per-shard shares.
func TestShardSelection(t *testing.T) {
	for _, tc := range []struct {
		capacity, shards, per int
	}{
		{1, 1, 1},
		{2, 1, 2},
		{63, 1, 63},
		{64, nShards, 4},
		{100, nShards, 7}, // 100/16 = 6 rem 4: shard 0 takes an extra
		{0, nShards, 0},
		{-1, nShards, 0},
	} {
		c := New[int](tc.capacity, nil)
		if len(c.shards) != tc.shards {
			t.Errorf("capacity %d: %d shards; want %d", tc.capacity, len(c.shards), tc.shards)
		}
		if got := c.shards[0].capacity; got != tc.per {
			t.Errorf("capacity %d: per-shard capacity %d; want %d", tc.capacity, got, tc.per)
		}
	}
}

// TestShardedAggregation fills a sharded cache past its capacity and
// checks that Len, Stats and the capacity bound hold across shards.
func TestShardedAggregation(t *testing.T) {
	const capacity = 64
	var evicted atomic.Int64
	c := New[int](capacity, func(string) { evicted.Add(1) })
	const total = 500
	for i := 0; i < total; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	// Per-shard bounds sum to exactly the configured capacity.
	if n := c.Len(); n > capacity || n == 0 {
		t.Errorf("Len = %d; want in (0, %d]", n, capacity)
	}
	st := c.Stats()
	if st.Entries != c.Len() {
		t.Errorf("Stats.Entries %d != Len %d", st.Entries, c.Len())
	}
	if st.Evictions != int64(total)-int64(st.Entries) {
		t.Errorf("Evictions %d + Entries %d != Puts %d", st.Evictions, st.Entries, total)
	}
	if evicted.Load() != st.Evictions {
		t.Errorf("onEvict saw %d keys; Stats says %d", evicted.Load(), st.Evictions)
	}
	hits, misses := 0, 0
	for i := 0; i < total; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%d", i)); ok {
			hits++
		} else {
			misses++
		}
	}
	if hits != st.Entries {
		t.Errorf("%d keys retrievable; Stats.Entries says %d", hits, st.Entries)
	}
	st = c.Stats()
	if st.Hits != int64(hits) || st.Misses != int64(misses) {
		t.Errorf("aggregated hit/miss counters %d/%d; want %d/%d", st.Hits, st.Misses, hits, misses)
	}
}

// TestShardedConcurrentDo hammers a sharded cache from many goroutines
// (run under -race in CI): singleflight and the counters must stay
// coherent when callers spread over shards.
func TestShardedConcurrentDo(t *testing.T) {
	c := New[int](256, nil)
	var computes atomic.Int64
	var wg sync.WaitGroup
	const workers, keys = 8, 40
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%d", k)
				v, _, err := c.Do(key, func() (int, bool, error) {
					computes.Add(1)
					return k, true, nil
				})
				if err != nil || v != k {
					t.Errorf("Do(%s) = (%d, %v)", key, v, err)
				}
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got < keys || got > workers*keys {
		t.Errorf("compute ran %d times; want in [%d, %d]", got, keys, workers*keys)
	}
	st := c.Stats()
	if st.Entries != keys {
		t.Errorf("Entries = %d; want %d", st.Entries, keys)
	}
	if st.Hits+st.Misses+st.Shared != workers*keys {
		t.Errorf("outcome counters sum to %d; want %d", st.Hits+st.Misses+st.Shared, workers*keys)
	}
}

// TestShardCapacitySums is the capacity-overshoot regression test: a
// plain ceil split gave every shard ceil(capacity/nShards), so a cache
// configured for 65 entries could hold 16*5 = 80. The shares must sum
// to exactly the configured capacity, with the remainder spread over
// the leading shards.
func TestShardCapacitySums(t *testing.T) {
	for _, capacity := range []int{64, 65, 100} {
		c := New[int](capacity, nil)
		sum := 0
		for _, s := range c.shards {
			sum += s.capacity
		}
		if sum != capacity {
			t.Errorf("capacity %d: shard shares sum to %d; want exactly %d", capacity, sum, capacity)
		}
		// The bound must hold in practice, not just in configuration:
		// overfill every shard and check the resident total.
		for i := 0; i < capacity*4; i++ {
			c.Put(fmt.Sprintf("key-%d", i), i)
		}
		if n := c.Len(); n > capacity {
			t.Errorf("capacity %d: %d entries resident; want <= %d", capacity, n, capacity)
		}
	}
}

// TestDoRetryCountsOnce is the singleflight-retry regression test: when
// a flight leader fails — panics, or returns an error — its 8 waiters
// retry instead of sharing the failure, and before the fix each retry
// re-entered Do and counted a second miss/shared for the same logical
// call. Every logical call must contribute exactly one outcome, the one
// Do returns; the extra rounds surface under Stats.Retries instead.
func TestDoRetryCountsOnce(t *testing.T) {
	boom := errors.New("leader fails")
	for _, fail := range []string{"panic", "error"} {
		c := New[int](0, nil)
		release := make(chan struct{})
		started := make(chan struct{})

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); (r != nil) != (fail == "panic") {
					t.Errorf("%s: leader recover() = %v", fail, r)
				}
			}()
			_, out, err := c.Do("k", func() (int, bool, error) {
				close(started)
				<-release
				if fail == "panic" {
					panic("leader dies")
				}
				return 0, false, boom
			})
			if out != Miss || err != boom {
				t.Errorf("%s: leader Do = (%v, %v); want (miss, its own error)", fail, out, err)
			}
		}()
		<-started

		const waiters = 8
		var returned [Hit + 1]atomic.Int64
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, out, err := c.Do("k", func() (int, bool, error) { return 42, true, nil })
				if err != nil || v != 42 {
					t.Errorf("%s: waiter Do = (%d, %v); want (42, nil)", fail, v, err)
				}
				returned[out].Add(1)
			}()
		}
		for c.Stats().Shared < waiters {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()

		st := c.Stats()
		if got := st.Hits + st.Misses + st.Shared; got != waiters+1 {
			t.Errorf("%s: outcomes sum to %d for %d logical calls; want %d (retries must not inflate)",
				fail, got, waiters+1, waiters+1)
		}
		// The leader returned Miss; every waiter must return what Stats
		// counted for it.
		if st.Hits != returned[Hit].Load() || st.Misses != returned[Miss].Load()+1 || st.Shared != returned[Shared].Load() {
			t.Errorf("%s: Stats %d/%d/%d (hit/miss/shared) but Do returned %d/%d/%d plus the leader's miss", fail,
				st.Hits, st.Misses, st.Shared, returned[Hit].Load(), returned[Miss].Load(), returned[Shared].Load())
		}
		if st.Retries == 0 {
			t.Errorf("%s: Retries = 0; want > 0 after a failed leader's waiters recomputed", fail)
		}
	}
}

// TestDoRetryBounded pins the retry bound: a computation that panics on
// every attempt must terminate each caller within maxDoAttempts rounds
// instead of recursing until the stack dies.
func TestDoRetryBounded(t *testing.T) {
	c := New[int](0, nil)
	var calls atomic.Int64
	alwaysPanic := func() (int, bool, error) {
		calls.Add(1)
		panic("always")
	}
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { recover() }() //nolint:errcheck
			c.Do("k", alwaysPanic)       //nolint:errcheck
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Do callers still running against an always-panicking compute; retry is unbounded")
	}
	// Each caller runs compute at most once per round, bounded by the
	// attempt budget.
	if got := calls.Load(); got > callers*maxDoAttempts {
		t.Errorf("compute ran %d times for %d callers; want <= %d", got, callers, callers*maxDoAttempts)
	}
	st := c.Stats()
	if got := st.Hits + st.Misses + st.Shared; got != callers {
		t.Errorf("outcomes sum to %d for %d logical calls; want %d", got, callers, callers)
	}
}

// TestByteBound exercises the byte-size bound: Stats.Bytes must stay
// under MaxBytes, eviction must follow LRU order, and an entry larger
// than a whole shard share must be rejected rather than flushing the
// shard.
func TestByteBound(t *testing.T) {
	var evicted []string
	c, err := NewWithConfig(Config[string]{
		Capacity: 4, // single shard: exact LRU order
		MaxBytes: 64,
		SizeOf:   func(v string) int { return len(v) },
		OnEvict:  func(key string) { evicted = append(evicted, key) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each entry costs len(key)+len(value) = 1+15 = 16 bytes; four fit
	// exactly in 64.
	pad := strings.Repeat("x", 15)
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, pad)
	}
	if got := c.Stats().Bytes; got != 64 {
		t.Fatalf("Bytes = %d; want 64", got)
	}
	c.Put("e", pad) // over by one entry: a (the LRU) must go
	st := c.Stats()
	if st.Bytes > 64 {
		t.Errorf("Bytes = %d after eviction; want <= 64", st.Bytes)
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a survived byte-bound eviction; want LRU out")
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Errorf("onEvict saw %v; want [a]", evicted)
	}

	// An entry bigger than the whole budget is rejected at the door and
	// reported as an eviction of its own key.
	c.Put("huge", strings.Repeat("y", 100))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry was stored")
	}
	if evicted[len(evicted)-1] != "huge" {
		t.Errorf("oversized store reported %v; want huge last", evicted)
	}
	// Re-storing a key under a larger value re-charges the delta.
	c.Put("b", strings.Repeat("z", 40)) // b now costs 41 of 64
	if got := c.Stats().Bytes; got > 64 {
		t.Errorf("Bytes = %d after re-store; want <= 64", got)
	}
}

// TestByteBoundUnderDo drives the byte bound through Do (the daemon's
// path) and checks the invariant the ISSUE pins: Stats.Bytes never
// exceeds the configured maximum under load.
func TestByteBoundUnderDo(t *testing.T) {
	const maxBytes = 1 << 10
	c, err := NewWithConfig(Config[string]{
		MaxBytes: maxBytes,
		SizeOf:   func(v string) int { return len(v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, _, err := c.Do(key, func() (string, bool, error) {
			return strings.Repeat("v", 64), true, nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Bytes; got > maxBytes {
			t.Fatalf("Bytes = %d after %d stores; want <= %d", got, i+1, maxBytes)
		}
	}
	if c.Bytes() != c.Stats().Bytes {
		t.Errorf("Bytes() = %d, Stats().Bytes = %d; want equal", c.Bytes(), c.Stats().Bytes)
	}
}

func TestNewWithConfigValidation(t *testing.T) {
	if _, err := NewWithConfig(Config[int]{MaxBytes: 1}); err == nil {
		t.Error("MaxBytes without SizeOf accepted; want error")
	}
	if _, err := NewWithConfig(Config[int]{Spill: &SpillConfig{}}); err == nil {
		t.Error("spill without directory accepted; want error")
	}
}

func TestOutcomeString(t *testing.T) {
	for out, want := range map[Outcome]string{Miss: "miss", Shared: "shared", Hit: "hit", Outcome(9): "unknown"} {
		if got := out.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q; want %q", int(out), got, want)
		}
	}
}
