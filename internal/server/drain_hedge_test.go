package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cosched"
	"cosched/internal/telemetry"
)

// jsonReader wraps a JSON literal for http.Post.
func jsonReader(s string) io.Reader { return strings.NewReader(s) }

// mustPrepare returns a request's solver options, failing the test if
// it does not validate.
func mustPrepare(t *testing.T, s *Server, req *SolveRequest) cosched.Options {
	t.Helper()
	opts, err := s.prepare(req, req.Robust)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return opts
}

// decodeJSONBody decodes and closes a response body.
func decodeJSONBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close() //nolint:errcheck
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
}

// TestDrainWithInFlightHedgeCancel races a drain against a hedge
// loser's cancellation: one worker is mid-solve for a client that goes
// away (the fleet client cancelled its losing hedge attempt), a second
// request is still queued for the same vanished client, and Drain
// begins under both. The drain must complete promptly — the cancelled
// client's solve aborts instead of running to natural completion — the
// queued task must be answered 499 without ever reaching the solver
// (server.solves stays at 1, no duplicate side effects), and the
// client-gone counter must record both.
func TestDrainWithInFlightHedgeCancel(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Request 1: a long uncancelled-it-would-run-for-seconds solve,
	// admitted under a client context we cancel mid-run.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	req1 := &SolveRequest{Synthetic: 26, Method: "oastar", NoCache: true}
	t1, aerr := s.admit(ctx1, req1, mustPrepare(t, s, req1), false, &telemetry.Event{ReqID: "hedge-loser-1"})
	if aerr != nil {
		t.Fatalf("admit 1: %+v", aerr)
	}
	// Wait until the single worker has actually started solving it.
	deadline := time.Now().Add(5 * time.Second)
	for s.solves.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the parked solve")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Request 2: queued behind it, same vanished client.
	ctx2, cancel2 := context.WithCancel(context.Background())
	req2 := &SolveRequest{Synthetic: 8, Method: "hastar", NoCache: true}
	t2, aerr := s.admit(ctx2, req2, mustPrepare(t, s, req2), false, &telemetry.Event{ReqID: "hedge-loser-2"})
	if aerr != nil {
		t.Fatalf("admit 2: %+v", aerr)
	}
	cancel2() // the hedge's winner answered: the client cancels this attempt

	// Begin draining while the first solve is still in flight, then
	// cancel its client too — the shape of a daemon going down while a
	// fleet client abandons its hedges.
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel1()

	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("drain never completed")
	}

	<-t1.done
	<-t2.done
	// The in-flight solve was cancelled, not duplicated: exactly one
	// solver run happened across both tasks.
	if got := s.solves.Value(); got != 1 {
		t.Fatalf("server.solves = %d; want 1 (queued task for a gone client must not solve)", got)
	}
	if t2.err == nil || t2.err.status != statusClientGone {
		t.Fatalf("queued task refusal = %+v; want status %d", t2.err, statusClientGone)
	}
	if s.rejectedGone.Value() == 0 {
		t.Fatal("server.rejected.client_gone never counted")
	}
	// The cancelled in-flight solve must have ended degraded (aborted
	// early) rather than running to a proven optimum.
	if t1.err == nil && t1.sol != nil && !t1.sol.Degraded {
		t.Fatalf("in-flight solve finished undegraded; cancellation did not propagate (sol=%+v)", t1.sol)
	}
}

// TestQueuedTaskForGoneClientSkipsSolve pins the fast path: a request
// whose client disconnects while the task is queued is answered 499
// without burning a worker on it.
func TestQueuedTaskForGoneClientSkipsSolve(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort cleanup
	}()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // client is already gone at admission's queue hop
	req := &SolveRequest{Synthetic: 6, Method: "hastar", NoCache: true}
	tk, aerr := s.admit(ctx, req, mustPrepare(t, s, req), false, &telemetry.Event{ReqID: "gone"})
	if aerr != nil {
		t.Fatalf("admit: %+v", aerr)
	}
	select {
	case <-tk.done:
	case <-time.After(5 * time.Second):
		t.Fatal("task never resolved")
	}
	if tk.err == nil || tk.err.status != statusClientGone {
		t.Fatalf("refusal = %+v; want status %d", tk.err, statusClientGone)
	}
	if got := s.solves.Value(); got != 0 {
		t.Fatalf("server.solves = %d; want 0", got)
	}
}

// TestRejectionsCarryRetryAfter pins the satellite contract: 429 (queue
// full) and 503 (draining) rejections carry a Retry-After header, and
// /healthz exposes the replica ID in both states.
func TestRejectionsCarryRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, CacheEntries: -1,
		ReplicaID: "r-test",
	})

	// Healthy healthz names the replica.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	decodeJSONBody(t, resp, &health)
	if health["replica_id"] != "r-test" {
		t.Fatalf("healthz = %v; want replica_id r-test", health)
	}

	// Fill the worker and the queue, then overflow: the 429 must carry
	// Retry-After.
	park := parkWorker(t, s, ts, 3000)
	defer func() { <-park }()
	queued := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, ts.URL+"/v1/solve",
			`{"synthetic": 26, "method": "oastar", "deadline_ms": 3000, "no_cache": true}`)
		queued <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
		jsonReader(`{"synthetic": 4, "method": "hastar"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d; want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q; want \"1\"", ra)
	}

	// Draining: healthz flips to 503 with Retry-After and the replica ID.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // drain outcome checked via healthz
	}()
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		resp.Body.Close() //nolint:errcheck
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("draining healthz Retry-After = %q; want \"2\"", ra)
	}
	var drainingHealth map[string]any
	decodeJSONBody(t, resp, &drainingHealth)
	if drainingHealth["status"] != "draining" || drainingHealth["replica_id"] != "r-test" {
		t.Fatalf("draining healthz = %v", drainingHealth)
	}

	// A solve rejected during drain also carries the hint.
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
		jsonReader(`{"synthetic": 4, "method": "hastar"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain-time solve status = %d; want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("drain-time 503 Retry-After = %q; want \"2\"", ra)
	}
	<-queued
}
