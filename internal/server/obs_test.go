package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cosched/internal/telemetry"
)

// syncBuf is an io.Writer safe to read while handler goroutines write
// (the access log flushes after the response bytes are on the wire, so
// a test can observe the body before the log line lands).
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitForLog polls the buffer until a line containing needle appears.
func waitForLog(t *testing.T, buf *syncBuf, needle string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, needle) {
				return line
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access-log line containing %q; log so far:\n%s", needle, buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRequestIDEchoAccessLogAndTraceJoin(t *testing.T) {
	buf := &syncBuf{}
	rec := telemetry.NewFlightRecorder(4096)
	reg := telemetry.New()
	_, ts := newTestServer(t, Config{
		Workers:   1,
		Metrics:   reg,
		Recorder:  rec,
		AccessLog: slog.New(slog.NewJSONHandler(buf, nil)),
	})

	const reqID = "test-req-abc"
	httpReq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("X-Request-ID echo = %q, want %q", got, reqID)
	}
	var body SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != reqID {
		t.Errorf("body request_id = %q, want %q", body.RequestID, reqID)
	}
	if body.SolveID == 0 {
		t.Error("body solve_id = 0, want the answering run's id")
	}

	// Exactly one access-log line carries the ID, with the phase
	// breakdown and outcome fields.
	line := waitForLog(t, buf, reqID)
	if n := strings.Count(buf.String(), reqID); n != 1 {
		t.Errorf("request ID appears in %d access-log lines, want 1", n)
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access-log line is not JSON: %v\n%s", err, line)
	}
	for _, field := range []string{"req_id", "route", "status", "queue_ms", "solve_ms", "encode_ms", "total_ms", "cache", "degraded", "solve_id"} {
		if _, ok := entry[field]; !ok {
			t.Errorf("access-log line missing %q: %s", field, line)
		}
	}
	if entry["route"] != "v1_solve" || entry["cache"] != "miss" {
		t.Errorf("route/cache = %v/%v, want v1_solve/miss", entry["route"], entry["cache"])
	}

	// The request event joins the solver timeline: same solve_id as the
	// run's solver events.
	var reqEv *telemetry.Event
	solveIDs := map[uint64]bool{}
	for _, ev := range rec.Events() {
		ev := ev
		if ev.Ev == "request" && ev.ReqID == reqID {
			reqEv = &ev
			continue
		}
		if ev.SolveID != 0 {
			solveIDs[ev.SolveID] = true
		}
	}
	if reqEv == nil {
		t.Fatal("no request event in the flight recorder")
	}
	if reqEv.SolveID != body.SolveID {
		t.Errorf("request event solve_id = %d, response says %d", reqEv.SolveID, body.SolveID)
	}
	if !solveIDs[reqEv.SolveID] {
		t.Errorf("no solver events share the request's solve_id %d", reqEv.SolveID)
	}

	// RED metrics, SLO counters, and the drained in-flight gauge.
	snap := reg.Snapshot()
	if got := snap["server.http.requests.v1_solve"]; got != int64(1) {
		t.Errorf("server.http.requests.v1_solve = %v, want 1", got)
	}
	if got := snap["server.http.requests.v1_solve.2xx"]; got != int64(1) {
		t.Errorf("server.http.requests.v1_solve.2xx = %v, want 1", got)
	}
	if got := snap["server.requests_inflight"]; got != int64(0) {
		t.Errorf("server.requests_inflight = %v, want 0 after completion", got)
	}
	if got := snap["server.slo.availability.good"]; got != int64(1) {
		t.Errorf("server.slo.availability.good = %v, want 1", got)
	}
	if _, ok := snap["server.slo.latency.burn_fast"]; !ok {
		t.Error("server.slo.latency.burn_fast not registered")
	}
}

func TestGeneratedAndSanitizedRequestIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, header := range map[string]string{
		"absent":         "",
		"embedded-space": "bad id", // space fails the printable-ASCII token check
		"too-long":       strings.Repeat("x", 300),
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set("X-Request-ID", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		got := resp.Header.Get("X-Request-ID")
		if got == "" {
			t.Errorf("%s: no generated X-Request-ID on the response", name)
		}
		if header != "" && got == header {
			t.Errorf("%s: unusable inbound ID %q was echoed instead of replaced", name, header)
		}
	}
}

func TestHealthzReportsDrainState(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := newHandlerServer(t, s)

	status, body := getJSON(t, ts+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", status)
	}
	if body["status"] != "ok" {
		t.Errorf(`healthz status = %v, want "ok"`, body["status"])
	}
	for _, field := range []string{"queue_len", "queue_cap", "workers"} {
		if _, ok := body[field]; !ok {
			t.Errorf("healthz body missing %q: %v", field, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	status, body = getJSON(t, ts+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", status)
	}
	if body["status"] != "draining" {
		t.Errorf(`healthz status = %v, want "draining"`, body["status"])
	}
}

func TestDebugRequestsRing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RequestRing: 8})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "ring-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d, want 200", resp.StatusCode)
	}

	// The ring is written after the response bytes; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		dbg, err := http.Get(ts.URL + "/debug/requests")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := io.ReadAll(dbg.Body)
		dbg.Body.Close() //nolint:errcheck
		if strings.Contains(string(page), "ring-probe-1") {
			if !strings.Contains(string(page), "v1_solve") {
				t.Errorf("/debug/requests row lacks the route:\n%s", page)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/requests never showed the request:\n%s", page)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRequestRingSeqlock(t *testing.T) {
	rr := telemetry.NewRing[reqRecord](4)
	for i := 0; i < 10; i++ {
		rr.Put(reqRecord{id: string(rune('a' + i)), atMS: float64(i)})
	}
	recs := rr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot retained %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := float64(6 + i); rec.atMS != want {
			t.Errorf("record %d atMS = %v, want %v (oldest-first)", i, rec.atMS, want)
		}
	}
}

// newHandlerServer mounts a server's handler without the auto-drain
// cleanup of newTestServer (for tests that drain explicitly).
func newHandlerServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad response JSON: %v", url, err)
	}
	return resp.StatusCode, out
}
