package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosched/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort cleanup
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad response JSON: %v", url, err)
	}
	return resp.StatusCode, out
}

const specBody = `{"spec": {"machine": "quad", "jobs": [
	{"kind": "serial", "program": "BT"},
	{"kind": "serial", "program": "LU"},
	{"kind": "serial", "program": "MG"},
	{"kind": "serial", "program": "CG"}
]}, "method": "oastar"}`

func TestSolveServedFromCacheOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	status, first := postJSON(t, ts.URL+"/v1/solve", specBody)
	if status != http.StatusOK {
		t.Fatalf("first solve: status %d: %v", status, first)
	}
	if first["cached"] != false {
		t.Errorf("first solve cached = %v; want false", first["cached"])
	}
	if first["degraded"] != false {
		t.Errorf("first solve degraded = %v; want false", first["degraded"])
	}

	status, second := postJSON(t, ts.URL+"/v1/solve", specBody)
	if status != http.StatusOK {
		t.Fatalf("second solve: status %d: %v", status, second)
	}
	if second["cached"] != true {
		t.Errorf("second identical solve cached = %v; want true", second["cached"])
	}
	if second["cost"] != first["cost"] {
		t.Errorf("cached cost %v != computed cost %v", second["cost"], first["cost"])
	}
	if got := s.solves.Value(); got != 1 {
		t.Errorf("server.solves = %d after identical repeat; want 1 (second served from cache)", got)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("CacheStats = %+v; want Hits 1, Misses 1", st)
	}

	// The robust ladder answers the same workload under a different
	// cache tag: it must not alias the single-method entry.
	status, robust := postJSON(t, ts.URL+"/v1/solve-robust", specBody)
	if status != http.StatusOK {
		t.Fatalf("robust solve: status %d: %v", status, robust)
	}
	if robust["cached"] != false {
		t.Errorf("robust solve cached = %v; want false (distinct key)", robust["cached"])
	}
	if robust["method"] != "robust" {
		t.Errorf("robust method = %v; want robust", robust["method"])
	}
	if fb, ok := robust["fallbacks"].([]any); !ok || len(fb) == 0 {
		t.Errorf("robust response has no fallbacks: %v", robust["fallbacks"])
	}
}

func TestNoCacheBypassesSolutionCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"synthetic": 6, "seed": 3, "method": "pg", "no_cache": true}`
	for i := 0; i < 2; i++ {
		status, resp := postJSON(t, ts.URL+"/v1/solve", body)
		if status != http.StatusOK {
			t.Fatalf("solve #%d: status %d: %v", i, status, resp)
		}
		if resp["cached"] != false {
			t.Errorf("no_cache solve #%d cached = %v; want false", i, resp["cached"])
		}
	}
	if got := s.solves.Value(); got != 2 {
		t.Errorf("server.solves = %d with no_cache; want 2", got)
	}
}

func TestBatchAnswersPositionally(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"requests": [
		{"synthetic": 6, "seed": 2, "method": "hastar"},
		{"synthetic": 4, "seed": 2, "method": "nonsense"},
		{"synthetic": 6, "seed": 2, "method": "hastar"}
	]}`
	status, out := postJSON(t, ts.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %v", status, out)
	}
	items, ok := out["items"].([]any)
	if !ok || len(items) != 3 {
		t.Fatalf("batch items = %v; want 3", out["items"])
	}
	first := items[0].(map[string]any)
	if first["status"] != float64(http.StatusOK) || first["response"] == nil {
		t.Errorf("item 0 = %v; want 200 with response", first)
	}
	second := items[1].(map[string]any)
	if second["status"] != float64(http.StatusBadRequest) || second["error"] == nil {
		t.Errorf("item 1 = %v; want 400 with error", second)
	}
	third := items[2].(map[string]any)
	if third["status"] != float64(http.StatusOK) {
		t.Fatalf("item 2 = %v; want 200", third)
	}
	// Items 0 and 2 are identical: whichever solved first, the other
	// either shared its flight or hit the cache.
	r0 := first["response"].(map[string]any)
	r2 := third["response"].(map[string]any)
	if r0["cost"] != r2["cost"] {
		t.Errorf("identical batch items disagree on cost: %v vs %v", r0["cost"], r2["cost"])
	}
	if !(r2["cached"] == true || r2["shared"] == true || r0["cached"] == true || r0["shared"] == true) {
		t.Errorf("neither identical batch item was cache- or flight-served: %v / %v", r0, r2)
	}
}

// parkWorker sends a long OA* solve (bounded by deadline_ms) and waits
// until the single worker has popped it off the queue.
func parkWorker(t *testing.T, s *Server, ts *httptest.Server, deadlineMS int) chan int {
	t.Helper()
	admitted := s.admitted.Value()
	done := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/solve",
			fmt.Sprintf(`{"synthetic": 26, "method": "oastar", "deadline_ms": %d, "no_cache": true}`, deadlineMS))
		done <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.admitted.Value() > admitted && len(s.queue) == 0 {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the parking solve")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueFullAndQueuedDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Park the only worker for ~1.5s: a 26-job exact OA* cannot finish
	// inside that deadline, so the solve runs until the context expires
	// and returns a degraded answer.
	parked := parkWorker(t, s, ts, 1500)

	// Fill the queue's single slot with a request that will sit behind
	// the parked solve until long after its own deadline.
	queuedDone := make(chan struct {
		status int
		body   map[string]any
	}, 1)
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/solve",
			`{"synthetic": 4, "method": "pg", "deadline_ms": 100, "no_cache": true}`)
		queuedDone <- struct {
			status int
			body   map[string]any
		}{status, body}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next request must be rejected immediately.
	status, body := postJSON(t, ts.URL+"/v1/solve", `{"synthetic": 4, "method": "pg"}`)
	if status != http.StatusTooManyRequests {
		t.Errorf("overflow request: status %d (%v); want 429", status, body)
	}
	if s.rejectedQueue.Value() == 0 {
		t.Error("server.rejected.queue_full not incremented")
	}

	if parkedStatus := <-parked; parkedStatus != http.StatusOK {
		t.Errorf("parked solve: status %d; want 200 (degraded answer)", parkedStatus)
	}
	queued := <-queuedDone
	if queued.status != http.StatusGatewayTimeout {
		t.Errorf("queued request: status %d (%v); want 504 after its deadline expired in queue", queued.status, queued.body)
	}
	if s.rejectedDL.Value() == 0 {
		t.Error("server.rejected.deadline not incremented")
	}
}

func TestDrainRejectsNewWorkAndFinishesOldWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	parked := parkWorker(t, s, ts, 800)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		d := s.draining
		s.mu.Unlock()
		if d {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}

	status, _ := postJSON(t, ts.URL+"/v1/solve", `{"synthetic": 4, "method": "pg"}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d; want 503", status)
	}
	if parkedStatus := <-parked; parkedStatus != http.StatusOK {
		t.Errorf("in-flight solve during drain: status %d; want 200", parkedStatus)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
}

func TestHealthzAndMetricsExposition(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{Workers: 1, Metrics: reg, Recorder: telemetry.NewFlightRecorder(256)})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d; want 200", resp.StatusCode)
	}

	for i := 0; i < 2; i++ {
		if status, out := postJSON(t, ts.URL+"/v1/solve", `{"synthetic": 6, "seed": 5, "method": "pg"}`); status != http.StatusOK {
			t.Fatalf("solve #%d: status %d: %v", i, status, out)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()       //nolint:errcheck
	// The repeat is answered by the cache without taking a queue slot:
	// only the miss was admitted.
	for _, want := range []string{"cosched_server_admitted 1", "cosched_server_solves 1", "cosched_server_cache_hits 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestTraceReturnsEventStreamOnMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, out := postJSON(t, ts.URL+"/v1/solve", `{"synthetic": 6, "seed": 9, "method": "hastar", "trace": true}`)
	if status != http.StatusOK {
		t.Fatalf("trace solve: status %d: %v", status, out)
	}
	trace, _ := out["trace_jsonl"].(string)
	if !strings.Contains(trace, `"solve_start"`) {
		t.Errorf("trace_jsonl missing solve_start event; got %.120q", trace)
	}
}

// TestUnbuildableWorkloadIs400 pins where a workload is built: on the
// worker, after admission. A spec naming an unknown program passes
// validation, so each refusal below was admitted and its worker's failed
// build became the request's 400 — alone and inside a batch — and a
// failed build is never cached, so a repeat is refused again, never
// answered as a hit.
func TestUnbuildableWorkloadIs400(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	item := `{"spec": {"jobs": [{"program": "no-such-program"}, {"program": "BT"}]}}`
	for i := 0; i < 2; i++ {
		if status, out := postJSON(t, ts.URL+"/v1/solve", item); status != http.StatusBadRequest {
			t.Fatalf("solve #%d: status %d (%v); want 400", i, status, out)
		}
	}
	status, out := postJSON(t, ts.URL+"/v1/batch", `{"requests": [`+item+`, {"synthetic": 4, "method": "pg"}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %v", status, out)
	}
	items, ok := out["items"].([]any)
	if !ok || len(items) != 2 {
		t.Fatalf("batch items = %v; want 2", out["items"])
	}
	if bad := items[0].(map[string]any); bad["status"] != float64(http.StatusBadRequest) || bad["error"] == nil {
		t.Errorf("unbuildable batch item = %v; want 400 with error", bad)
	}
	if good := items[1].(map[string]any); good["status"] != float64(http.StatusOK) {
		t.Errorf("buildable batch item = %v; want 200", good)
	}
	if st := s.CacheStats(); st.Hits != 0 || st.Shared != 0 {
		t.Errorf("a failed build was served from the cache: %+v", st)
	}
	if got := s.admitted.Value(); got != 4 {
		t.Errorf("admitted = %d; want 4 (every request reaches a worker, which builds it)", got)
	}
}

// TestBadRequestsAreRejected covers malformed requests and the request
// bounds. Each oversized workload would exhaust memory if it were
// built, so answering it at all shows it was refused first — and the
// cache never saw any of them.
func TestBadRequestsAreRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	huge := strconv.Itoa(1 << 30)
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"no workload", "/v1/solve", `{"method": "pg"}`, http.StatusBadRequest},
		{"bad method", "/v1/solve", `{"synthetic": 4, "method": "quantum"}`, http.StatusBadRequest},
		{"bad machine", "/v1/solve", `{"synthetic": 4, "machine": "mainframe"}`, http.StatusBadRequest},
		{"bad accounting", "/v1/solve", `{"synthetic": 4, "accounting": "xx"}`, http.StatusBadRequest},
		{"not json", "/v1/solve", `{{{`, http.StatusBadRequest},
		{"huge synthetic", "/v1/solve", `{"synthetic": ` + huge + `}`, http.StatusBadRequest},
		{"huge synthetic_large", "/v1/solve-robust", `{"synthetic_large": ` + huge + `}`, http.StatusBadRequest},
		{"huge spec job", "/v1/solve", `{"spec": {"jobs": [{"kind": "pc", "program": "MG-Par", "procs": ` + huge + `}]}}`, http.StatusBadRequest},
		{"huge spec total", "/v1/solve", `{"spec": {"jobs": [` +
			strings.Repeat(`{"kind": "pe", "program": "MCM", "procs": 4000},`, 3) + `{"program": "BT"}]}}`, http.StatusBadRequest},
		{"huge batch", "/v1/batch", `{"requests": [` + strings.Repeat(`{"synthetic": 4},`, maxBatchItems) + `{"synthetic": 4}]}`,
			http.StatusBadRequest},
		{"huge body", "/v1/solve", `{"synthetic": 4, "method": "` + strings.Repeat("x", maxBodyBytes) + `"}`,
			http.StatusRequestEntityTooLarge},
		// Options cosched.Options.Validate refuses, refused before the
		// cache, a queue slot or an instance build.
		{"bad h_strategy", "/v1/solve", `{"synthetic": 8, "h_strategy": 9}`, http.StatusBadRequest},
		{"bad h_strategy on a large build", "/v1/solve-robust", `{"synthetic_large": 4096, "h_strategy": 9}`, http.StatusBadRequest},
		{"negative k_per_level", "/v1/solve", `{"synthetic": 8, "method": "hastar", "k_per_level": -1}`, http.StatusBadRequest},
		{"unknown ip_config", "/v1/solve", `{"synthetic": 8, "method": "ip", "ip_config": "bnb-quantum"}`, http.StatusBadRequest},
		{"negative h_weight", "/v1/solve", `{"synthetic": 8, "method": "hastar", "h_weight": -1}`, http.StatusBadRequest},
		{"negative beam_width", "/v1/solve", `{"synthetic": 8, "method": "hastar", "beam_width": -4}`, http.StatusBadRequest},
		{"negative max_expansions", "/v1/solve", `{"synthetic": 8, "max_expansions": -1}`, http.StatusBadRequest},
		{"negative memory budget", "/v1/solve-robust", `{"synthetic": 8, "memory_budget_bytes": -1}`, http.StatusBadRequest},
		{"weighted oastar", "/v1/solve", `{"synthetic": 8, "method": "oastar", "h_weight": 2}`, http.StatusBadRequest},
		{"weighted default method", "/v1/solve", `{"synthetic": 8, "h_weight": 1.5}`, http.StatusBadRequest},
	} {
		status, out := postJSON(t, ts.URL+tc.path, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d (%v); want %d", tc.name, status, out, tc.status)
		}
	}
	if st := s.CacheStats(); st.Hits+st.Misses+st.Shared != 0 || s.admitted.Value() != 0 || s.solves.Value() != 0 {
		t.Errorf("refused requests reached the cache (%+v), the queue (%d admitted) or a solve (%d)",
			st, s.admitted.Value(), s.solves.Value())
	}
	// The robust ladder ignores Method and seeds its beam with h_weight,
	// so the OA* weight rule leaves it alone.
	if _, err := s.prepare(&SolveRequest{Synthetic: 8, HWeight: 2}, true); err != nil {
		t.Errorf("robust request with h_weight 2 refused: %v", err)
	}
}
