package server

import (
	"context"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// bootSpilled builds a server over a spill directory and a test
// listener, returning both plus a shutdown function that drains and
// closes the cache — the full restart choreography, callable mid-test.
func bootSpilled(t *testing.T, dir string) (*Server, *httptest.Server, func()) {
	t.Helper()
	s, err := New(Config{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatalf("New with CacheDir: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if err := s.CloseCache(); err != nil {
			t.Fatalf("CloseCache: %v", err)
		}
	}
}

// TestCacheRestartWarm is the tentpole's unit-level proof: a daemon
// restarted over the same -cache-dir answers a previously-solved
// fingerprint as a cache hit, with the identical solution.
func TestCacheRestartWarm(t *testing.T) {
	dir := t.TempDir()
	body := `{"synthetic": 6, "method": "hastar", "seed": 3}`

	s1, ts1, shutdown1 := bootSpilled(t, dir)
	status, first := postJSON(t, ts1.URL+"/v1/solve", body)
	if status != 200 {
		t.Fatalf("first solve: status %d: %v", status, first)
	}
	if first["cached"] == true {
		t.Fatal("first solve reported cached on a cold cache")
	}
	if st := s1.CacheStats(); st.Spilled == 0 {
		t.Fatalf("nothing spilled after a cacheable solve: %+v", st)
	}
	shutdown1()

	s2, ts2, shutdown2 := bootSpilled(t, dir)
	defer shutdown2()
	if st := s2.CacheStats(); st.Replayed == 0 {
		t.Fatalf("restarted server replayed nothing: %+v", st)
	}
	status, second := postJSON(t, ts2.URL+"/v1/solve", body)
	if status != 200 {
		t.Fatalf("replayed solve: status %d: %v", status, second)
	}
	if second["cached"] != true {
		t.Errorf("replayed solve not served as a hit: %v", second)
	}
	for _, field := range []string{"cost", "avg_cost"} {
		if first[field] != second[field] {
			t.Errorf("%s changed across restart: %v -> %v", field, first[field], second[field])
		}
	}
	if second["groups"] == nil || second["machines"] == nil {
		t.Error("replayed response lost its assignment")
	}
	if st := s2.CacheStats(); st.Hits == 0 {
		t.Errorf("cache Stats recorded no hit: %+v", st)
	}
}

// TestCacheStatsOneOutcomePerRequest pins the Get/Do contract at the
// server level: N requests produce exactly N outcomes in the solution
// cache's Stats — no Get probes, no double counting.
func TestCacheStatsOneOutcomePerRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := `{"synthetic": 6, "method": "hastar"}`
	const requests = 5
	for i := 0; i < requests; i++ {
		if status, resp := postJSON(t, ts.URL+"/v1/solve", body); status != 200 {
			t.Fatalf("solve %d: status %d: %v", i, status, resp)
		}
	}
	st := s.CacheStats()
	if got := st.Hits + st.Misses + st.Shared; got != requests {
		t.Errorf("cache outcomes sum to %d for %d requests; want exactly %d", got, requests, requests)
	}
	if st.Misses != 1 || st.Hits != requests-1 {
		t.Errorf("Stats = %+v; want 1 miss then %d hits", st, requests-1)
	}
}

// TestCacheBytesMetricBounded drives enough distinct solves through a
// tightly byte-bounded cache to force evictions and checks the
// acceptance criterion: Stats.Bytes stays at or under the budget.
func TestCacheBytesMetricBounded(t *testing.T) {
	// A sub-threshold entry capacity keeps the cache on one shard, so
	// the whole byte budget is one pool and the eviction pressure of
	// the seed loop is deterministic.
	const budget = 2048
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 32, CacheBytes: budget})
	for seed := 1; seed <= 24; seed++ {
		status, resp := postJSON(t, ts.URL+"/v1/solve",
			`{"synthetic": 6, "method": "hastar", "seed": `+strconv.Itoa(seed)+`}`)
		if status != 200 {
			t.Fatalf("seed %d: status %d: %v", seed, status, resp)
		}
		if st := s.CacheStats(); st.Bytes > budget {
			t.Fatalf("seed %d: cache Bytes %d exceeds budget %d", seed, st.Bytes, budget)
		}
	}
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a %d-byte budget: %+v (test too loose?)", budget, st)
	}
	if st.Bytes == 0 {
		t.Error("Bytes = 0 after cacheable solves; byte accounting is dead")
	}
}
