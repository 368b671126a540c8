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

// TestExactCapacity pins the entry bound on the whole cache, at the
// daemon's default of 128 entries: 128 distinct puts evict nothing, the
// 129th evicts exactly the least-recently-used key, and past that the
// resident set is always the most recent 128 keys, with Stats and
// onEvict agreeing on every count.
func TestExactCapacity(t *testing.T) {
	const capacity = 128
	var evicted []string
	c := New[int](capacity, func(key string) { evicted = append(evicted, key) })
	key := func(i int) string { return fmt.Sprintf("key-%d", i) }
	for i := 0; i < capacity; i++ {
		c.Put(key(i), i)
	}
	if st := c.Stats(); st.Entries != capacity || st.Evictions != 0 || len(evicted) != 0 {
		t.Fatalf("after %d puts: Stats %+v, onEvict %v; want %d entries and no eviction", capacity, st, evicted, capacity)
	}
	if _, ok := c.Get(key(0)); !ok { // refresh key-0: key-1 becomes the coldest
		t.Fatal("key-0 missing at capacity")
	}
	c.Put(key(capacity), capacity)
	if len(evicted) != 1 || evicted[0] != key(1) {
		t.Fatalf("put %d evicted %v; want exactly [%s]", capacity+1, evicted, key(1))
	}

	const total = 500
	for i := capacity + 1; i < total; i++ {
		c.Put(key(i), i)
	}
	st := c.Stats()
	if st.Entries != capacity {
		t.Errorf("Entries = %d; want exactly %d", st.Entries, capacity)
	}
	if st.Evictions != int64(total-capacity) || int64(len(evicted)) != st.Evictions {
		t.Errorf("Evictions %d, onEvict saw %d; want %d each", st.Evictions, len(evicted), total-capacity)
	}
	hits, misses := 0, 0
	for i := 0; i < total; i++ {
		_, ok := c.Get(key(i))
		if ok != (i >= total-capacity) {
			t.Errorf("%s resident = %v; want only the last %d keys put", key(i), ok, capacity)
		}
		if ok {
			hits++
		} else {
			misses++
		}
	}
	if st := c.Stats(); st.Hits != int64(hits)+1 || st.Misses != int64(misses) {
		t.Errorf("hit/miss counters %d/%d; want %d/%d", st.Hits, st.Misses, hits+1, misses)
	}
}

// TestConcurrentDo hammers one cache from many goroutines (run under
// -race in CI): singleflight, the counters and the LRU must stay
// coherent under concurrent Do calls.
func TestConcurrentDo(t *testing.T) {
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
	// Every key computes once: a later caller hits, a concurrent one
	// shares, and nothing is evicted below capacity.
	if got := computes.Load(); got != keys {
		t.Errorf("compute ran %d times; want %d", got, keys)
	}
	st := c.Stats()
	if st.Entries != keys || st.Misses != keys || st.Evictions != 0 {
		t.Errorf("Stats = %+v; want %d entries, %d misses, no eviction", st, keys, keys)
	}
	if st.Hits+st.Misses+st.Shared != workers*keys {
		t.Errorf("outcome counters sum to %d; want %d", st.Hits+st.Misses+st.Shared, workers*keys)
	}
	if len(c.flights) != 0 {
		t.Errorf("%d flights leaked after all Do calls returned", len(c.flights))
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
// than the whole budget must be refused rather than flushing the cache.
func TestByteBound(t *testing.T) {
	var evicted []string
	c, err := NewWithConfig(Config[string]{
		Capacity: 4,
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
}

// TestEntryUpToWholeByteBudget pins that the byte bound is one budget:
// under MaxBytes M an entry of M/2 is stored beside smaller ones, one of
// exactly M is stored and evicts everything else, and only one of M+1
// is refused.
func TestEntryUpToWholeByteBudget(t *testing.T) {
	const budget = 1024
	var evicted []string
	c, err := NewWithConfig(Config[string]{
		MaxBytes: budget,
		SizeOf:   func(v string) int { return len(v) },
		OnEvict:  func(key string) { evicted = append(evicted, key) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each entry costs len(key) + len(value); keys are one byte.
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, strings.Repeat("s", 63)) // 64 bytes each
	}
	c.Put("h", strings.Repeat("h", budget/2-1))
	if _, ok := c.Get("h"); !ok {
		t.Fatalf("a %d-byte entry under a %d-byte budget was not stored (evicted %v)", budget/2, budget, evicted)
	}
	if st := c.Stats(); st.Entries != 5 || st.Bytes != 4*64+budget/2 || len(evicted) != 0 {
		t.Fatalf("Stats %+v, evicted %v; want all 5 entries resident in %d bytes", st, evicted, 4*64+budget/2)
	}
	c.Put("w", strings.Repeat("w", budget-1))
	if _, ok := c.Get("w"); !ok {
		t.Fatal("an entry of exactly the budget was not stored")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != budget || len(evicted) != 5 {
		t.Errorf("Stats %+v, evicted %v; want the whole-budget entry alone after 5 evictions", st, evicted)
	}
	c.Put("x", strings.Repeat("x", budget))
	if _, ok := c.Get("x"); ok {
		t.Error("an entry one byte over the budget was stored")
	}
	if _, ok := c.Get("w"); !ok {
		t.Error("refusing an oversized entry evicted the resident one")
	}
	if evicted[len(evicted)-1] != "x" {
		t.Errorf("oversized store reported %v; want x last", evicted)
	}
	// An oversized value under a resident key drops the older value
	// rather than flushing the cache around it.
	c.Put("a", strings.Repeat("s", 63))
	c.Put("b", strings.Repeat("s", 63))
	c.Put("a", strings.Repeat("a", budget))
	if _, ok := c.Get("b"); !ok || evicted[len(evicted)-1] != "a" {
		t.Errorf("an oversized re-store of a reported %v and kept b = %v; want a dropped alone", evicted, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 64 {
		t.Errorf("Stats %+v after an oversized re-store; want b alone in 64 bytes", st)
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
