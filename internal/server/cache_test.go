package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"cosched/internal/telemetry"
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
	// The entry bound (32) stays above the 24 seeds, so only the byte
	// budget evicts, and the seed loop's eviction pressure is
	// deterministic.
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

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHitAnsweredWhenQueueFull: a cached answer needs neither a queue
// slot nor a worker, so a repeat is served while the only worker is
// busy and the queue is full.
func TestHitAnsweredWhenQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	body := `{"synthetic": 6, "seed": 7, "method": "pg"}`
	if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != 200 {
		t.Fatalf("cold solve: status %d: %v", status, out)
	}
	parked := parkWorker(t, s, ts, 1000)
	queued := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/solve", `{"synthetic": 4, "method": "pg", "no_cache": true}`)
		queued <- status
	}()
	waitFor(t, "the queue to fill", func() bool { return len(s.queue) == cap(s.queue) })

	status, out := postJSON(t, ts.URL+"/v1/solve", body)
	if status != 200 || out["cached"] != true {
		t.Errorf("repeat with a full queue: status %d, cached %v; want 200 from the cache", status, out["cached"])
	}
	if got := <-parked; got != 200 {
		t.Errorf("parked solve: status %d", got)
	}
	if got := <-queued; got != 200 {
		t.Errorf("queued solve: status %d", got)
	}
}

// TestJoinerHoldsNoWorker: while two identical cold requests share one
// solve on a two-worker server, a third, different request is solved on
// the second worker — the joiner waits on its own goroutine, not on a
// worker.
func TestJoinerHoldsNoWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// 26-job exact OA* cannot finish inside 2s: the shared solve holds
	// one worker until its deadline.
	slow := `{"synthetic": 26, "method": "oastar", "deadline_ms": 2000}`
	slowDone := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _ := postJSON(t, ts.URL+"/v1/solve", slow)
			slowDone <- status
		}()
	}
	waitFor(t, "the second slow request to join the first", func() bool { return s.CacheStats().Shared == 1 })

	start := time.Now()
	if status, out := postJSON(t, ts.URL+"/v1/solve", `{"synthetic": 6, "seed": 11, "method": "pg"}`); status != 200 {
		t.Fatalf("third request: status %d: %v", status, out)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the third request took %v: it waited for the shared solve, so the joiner held a worker", took)
	}
	for i := 0; i < 2; i++ {
		if got := <-slowDone; got != 200 {
			t.Errorf("slow request: status %d", got)
		}
	}
	if got := s.solves.Value(); got != 2 {
		t.Errorf("server.solves = %d; want 2 (one shared solve, one for the third request)", got)
	}
}

// TestLeaderRejectionNotShared: a leader refused while queued — its
// deadline expired, or its client left — keeps its refusal. The request
// that joined its flight runs a round of its own and gets a 200, and
// every cache-eligible request still counts exactly one outcome.
func TestLeaderRejectionNotShared(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	parked := parkWorker(t, s, ts, 800)

	expiring := SolveRequest{Synthetic: 6, Seed: 21, Method: "hastar", DeadlineMS: 50}
	leaving := SolveRequest{Synthetic: 6, Seed: 22, Method: "hastar"}
	gone, leave := context.WithCancel(context.Background())
	defer leave()
	type result struct {
		resp *SolveResponse
		herr *httpError
	}
	run := func(ctx context.Context, req SolveRequest) chan result {
		out := make(chan result, 1)
		go func() {
			resp, herr := s.answer(ctx, &req, false, &telemetry.Event{})
			out <- result{resp, herr}
		}()
		return out
	}
	leaders := []chan result{run(context.Background(), expiring)}
	waitFor(t, "the first leader to queue", func() bool { return len(s.queue) == 1 })
	leaders = append(leaders, run(gone, leaving))
	waitFor(t, "the second leader to queue", func() bool { return len(s.queue) == 2 })
	expiring.DeadlineMS = 0 // same key: deadlines do not enter it
	joiners := []chan result{run(context.Background(), expiring), run(context.Background(), leaving)}
	waitFor(t, "both joiners to join", func() bool { return s.CacheStats().Shared == 2 })
	leave()

	for i, want := range []int{http.StatusGatewayTimeout, statusClientGone} {
		if r := <-leaders[i]; r.herr == nil || r.herr.status != want {
			t.Errorf("leader %d: refusal %+v; want status %d", i, r.herr, want)
		}
	}
	for i, j := range joiners {
		if r := <-j; r.herr != nil || r.resp == nil || r.resp.Degraded {
			t.Errorf("joiner %d: (%+v, %+v); want its own undegraded answer", i, r.resp, r.herr)
		}
	}
	if got := <-parked; got != 200 {
		t.Errorf("parked solve: status %d", got)
	}

	st := s.CacheStats()
	if st.Hits+st.Misses+st.Shared != 4 || st.Misses != 2 || st.Shared != 2 {
		t.Errorf("CacheStats = %+v; want 2 misses and 2 shared for 4 cache-eligible requests", st)
	}
	if s.cacheHits.Value() != st.Hits || s.cacheMisses.Value() != st.Misses || s.cacheShared.Value() != st.Shared {
		t.Errorf("server.cache.* = %d/%d/%d (hits/misses/shared); CacheStats says %d/%d/%d",
			s.cacheHits.Value(), s.cacheMisses.Value(), s.cacheShared.Value(), st.Hits, st.Misses, st.Shared)
	}
}
