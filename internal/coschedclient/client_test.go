package coschedclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosched/internal/server"
	"cosched/internal/telemetry"
)

// --- ring ---

func TestRingOrderIsDeterministicAndComplete(t *testing.T) {
	r := newRing(5, 64)
	for _, key := range []string{"a", "b", "fingerprint-1", "fingerprint-2"} {
		o1 := r.order(key)
		o2 := r.order(key)
		if len(o1) != 5 {
			t.Fatalf("order(%q) has %d entries; want 5", key, len(o1))
		}
		seen := make(map[int]bool)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("order(%q) not deterministic: %v vs %v", key, o1, o2)
			}
			if seen[o1[i]] {
				t.Fatalf("order(%q) repeats replica %d: %v", key, o1[i], o1)
			}
			seen[o1[i]] = true
		}
	}
}

func TestRingSpreadsKeysAcrossReplicas(t *testing.T) {
	r := newRing(3, 64)
	homes := make(map[int]int)
	for i := 0; i < 300; i++ {
		homes[r.order(fmt.Sprintf("key-%d", i))[0]]++
	}
	for rep := 0; rep < 3; rep++ {
		if homes[rep] == 0 {
			t.Fatalf("replica %d is home to no keys: %v", rep, homes)
		}
	}
}

// --- breaker ---

// fakeClock is an adjustable time source for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestBreakerTripsHalfOpensAndCloses(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var transitions []string
	b := newBreaker(BreakerConfig{Window: 10, MinSamples: 4, FailureRate: 0.5, OpenFor: time.Second},
		clk.now, func(from, to breakerState, reason string) {
			transitions = append(transitions, from.String()+"->"+to.String())
		})

	// Below MinSamples nothing trips.
	b.onFailure(false)
	b.onFailure(false)
	if got := b.currentState(); got != stateClosed {
		t.Fatalf("state after 2 failures = %v; want closed (below MinSamples)", got)
	}
	// Two more failures cross MinSamples at 100% failure rate.
	b.onFailure(false)
	b.onFailure(false)
	if got := b.currentState(); got != stateOpen {
		t.Fatalf("state after 4 failures = %v; want open", got)
	}
	if b.allow() {
		t.Fatal("open breaker allowed a request before OpenFor elapsed")
	}
	// After OpenFor: one probe allowed, the rest rejected.
	clk.advance(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after OpenFor")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.onSuccess()
	if got := b.currentState(); got != stateClosed {
		t.Fatalf("state after probe success = %v; want closed", got)
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v; want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v; want %v", transitions, want)
		}
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(BreakerConfig{Window: 10, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Second}, clk.now, nil)
	b.onFailure(false)
	b.onFailure(false)
	clk.advance(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no half-open probe")
	}
	b.onFailure(false)
	if got := b.currentState(); got != stateOpen {
		t.Fatalf("state after failed probe = %v; want open", got)
	}
	// The reopen restarts the OpenFor timer.
	if b.allow() {
		t.Fatal("reopened breaker allowed traffic immediately")
	}
}

func TestBreakerDrainOpensImmediately(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(BreakerConfig{Window: 20, MinSamples: 10, FailureRate: 0.9, OpenFor: time.Second}, clk.now, nil)
	b.onSuccess()
	b.onFailure(true) // drain signal: no window math required
	if got := b.currentState(); got != stateOpen {
		t.Fatalf("state after drain failure = %v; want open", got)
	}
}

func TestBreakerForceProbesOpenCircuit(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Hour}, clk.now, nil)
	b.onFailure(false)
	b.onFailure(false)
	if b.allow() {
		t.Fatal("open breaker allowed before force")
	}
	b.force()
	if got := b.currentState(); got != stateHalfOpen {
		t.Fatalf("state after force = %v; want half-open", got)
	}
}

func TestBreakerAbandonProbeReleasesSlot(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Second}, clk.now, nil)
	b.onFailure(false)
	b.onFailure(false)
	clk.advance(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no half-open probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.abandonProbe()
	if got := b.currentState(); got != stateHalfOpen {
		t.Fatalf("state after abandon = %v; want still half-open", got)
	}
	if !b.allow() {
		t.Fatal("abandoned probe slot was not released for the next probe")
	}
}

// --- client plumbing helpers ---

// solveBody is a minimal valid wire request.
func solveBody() *server.SolveRequest {
	return &server.SolveRequest{Synthetic: 4, Seed: 1, Method: "hastar"}
}

// okHandler answers 200 with a decodable SolveResponse and records the
// deadline_ms each attempt carried.
func okHandler(name string, deadlines *[]int64, mu *sync.Mutex, delay time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req server.SolveRequest
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &req) //nolint:errcheck
		if mu != nil {
			mu.Lock()
			*deadlines = append(*deadlines, req.DeadlineMS)
			mu.Unlock()
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(server.SolveResponse{ //nolint:errcheck
			Method:    name,
			RequestID: r.Header.Get(server.RequestIDHeader),
		})
	}
}

// newClient builds a test client over the given replica URLs with fast
// backoff and hedging disabled unless overridden.
func newClient(t *testing.T, mutate func(*Config), urls ...string) *Client {
	t.Helper()
	cfg := Config{
		Replicas:      urls,
		MaxAttempts:   3,
		BackoffBase:   time.Millisecond,
		BackoffCap:    5 * time.Millisecond,
		HedgeQuantile: -1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSolveRoutesToHomeAndSucceeds(t *testing.T) {
	var mu sync.Mutex
	var deadlines []int64
	srv := httptest.NewServer(okHandler("s1", &deadlines, &mu, 0))
	defer srv.Close()
	c := newClient(t, nil, srv.URL)
	res, err := c.Solve(context.Background(), solveBody())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || res.Response == nil || res.Response.Method != "s1" {
		t.Fatalf("result = %+v", res)
	}
	if res.Attempts != 1 || res.Retries != 0 || res.Hedged {
		t.Fatalf("attempt accounting = %+v; want single clean attempt", res)
	}
	if res.Replica != srv.URL || res.Home != srv.URL {
		t.Fatalf("replica/home = %q/%q; want %q", res.Replica, res.Home, srv.URL)
	}
	if got := c.Stats(); got.Requests != 1 || got.Attempts != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestFailoverRetriesOnAnotherReplicaWithSameRequestID(t *testing.T) {
	var mu sync.Mutex
	var deadlines []int64
	var ids []string
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get(server.RequestIDHeader))
		var req server.SolveRequest
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &req) //nolint:errcheck
		deadlines = append(deadlines, req.DeadlineMS)
		mu.Unlock()
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer dead.Close()
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get(server.RequestIDHeader))
		var req server.SolveRequest
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &req) //nolint:errcheck
		deadlines = append(deadlines, req.DeadlineMS)
		mu.Unlock()
		okHandler("alive", nil, nil, 0)(w, r)
	}))
	defer alive.Close()

	// Find a key whose ring home is replica 0 (the dead one), so the
	// retry demonstrably fails over to replica 1.
	c := newClient(t, nil, dead.URL, alive.URL)
	key := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.ring.order(k)[0] == 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key homed on replica 0 in 64 probes")
	}
	req := solveBody()
	req.DeadlineMS = 5000
	start := time.Now()
	res, err := c.SolveKeyed(context.Background(), key, "req-failover", req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("status = %d; want 200 via failover", res.Status)
	}
	if res.Replica != alive.URL || res.Home != dead.URL {
		t.Fatalf("replica = %q home = %q; want failover from %q to %q", res.Replica, res.Home, dead.URL, alive.URL)
	}
	if res.Attempts != 2 || res.Retries != 1 {
		t.Fatalf("attempts/retries = %d/%d; want 2/1", res.Attempts, res.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 2 || ids[0] != "req-failover" || ids[1] != "req-failover" {
		t.Fatalf("request IDs across attempts = %v; want the same ID twice", ids)
	}
	// Deadline propagation: the second attempt's wire deadline must have
	// shrunk by the elapsed client time (backoff included).
	if len(deadlines) != 2 || deadlines[1] > deadlines[0] || deadlines[0] > 5000 {
		t.Fatalf("wire deadlines = %v; want second attempt below first, both <= 5000", deadlines)
	}
	elapsed := time.Since(start)
	if slack := 5000 - deadlines[1]; time.Duration(slack)*time.Millisecond > elapsed+50*time.Millisecond {
		t.Fatalf("second attempt gave up %dms of budget but only %v elapsed", slack, elapsed)
	}
	st := c.Stats()
	if st.Retries != 1 || st.Failovers != 1 {
		t.Fatalf("stats = %+v; want 1 retry, 1 failover", st)
	}
}

func TestTotalWallTimeNeverExceedsCallerDeadline(t *testing.T) {
	// Every replica black-holes until the attempt context expires; with
	// 3 attempts plus backoff the naive client would take ~3x the
	// deadline. The budget anchor must cap the whole request at the
	// caller's deadline.
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // unread body hides client disconnects
		<-r.Context().Done()
	})
	s1 := httptest.NewServer(hang)
	defer s1.Close()
	s2 := httptest.NewServer(hang)
	defer s2.Close()

	c := newClient(t, func(cfg *Config) {
		cfg.BackoffBase = 20 * time.Millisecond
		cfg.BackoffCap = 100 * time.Millisecond
	}, s1.URL, s2.URL)
	req := solveBody()
	req.DeadlineMS = 300
	start := time.Now()
	_, err := c.Solve(context.Background(), req)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hung fleet produced a success")
	}
	if elapsed > 450*time.Millisecond {
		t.Fatalf("request took %v against a 300ms caller deadline", elapsed)
	}
	if st := c.Stats(); st.Failures != 1 || st.DeadlineExhausted != 1 {
		t.Fatalf("stats = %+v; want the failure classified as deadline exhaustion", st)
	}
}

func TestCallerContextDeadlineBoundsBudget(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // unread body hides client disconnects
		<-r.Context().Done()
	}))
	defer hang.Close()
	c := newClient(t, nil, hang.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Solve(ctx, solveBody()) // no DeadlineMS: budget comes from ctx
	if err == nil {
		t.Fatal("hung replica produced a success")
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("request took %v against a 200ms context deadline", elapsed)
	}
}

func TestDegradedAnswerIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(server.SolveResponse{Degraded: true}) //nolint:errcheck
	}))
	defer srv.Close()
	c := newClient(t, nil, srv.URL)
	res, err := c.Solve(context.Background(), solveBody())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || !res.Response.Degraded {
		t.Fatalf("result = %+v; want the degraded 200 passed through", res)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("degraded answer provoked %d calls; want 1 (no retry)", n)
	}
}

func TestHedgeFiresAndFastReplicaWins(t *testing.T) {
	var slowCancelled atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // unread body hides client disconnects
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			slowCancelled.Store(true)
			return
		}
		okHandler("slow", nil, nil, 0)(w, r)
	}))
	defer slow.Close()
	fast := httptest.NewServer(okHandler("fast", nil, nil, 0))
	defer fast.Close()

	c := newClient(t, func(cfg *Config) {
		cfg.HedgeQuantile = 0.9
		cfg.HedgeMin = 10 * time.Millisecond
		cfg.HedgeMax = 10 * time.Millisecond // force the hedge at 10ms
	}, slow.URL, fast.URL)
	// Pick a key homed on the slow replica.
	key := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.ring.order(k)[0] == 0 {
			key = k
			break
		}
	}
	req := solveBody()
	req.DeadlineMS = 5000
	start := time.Now()
	res, err := c.SolveKeyed(context.Background(), key, "req-hedge", req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || res.Replica != fast.URL {
		t.Fatalf("result = %+v; want the fast replica's answer", res)
	}
	if !res.Hedged || !res.HedgeWon {
		t.Fatalf("result = %+v; want a winning hedge recorded", res)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged request took %v; the 2s slow replica must not gate it", elapsed)
	}
	// The losing attempt's context must be cancelled promptly.
	deadline := time.Now().Add(time.Second)
	for !slowCancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !slowCancelled.Load() {
		t.Fatal("losing hedge attempt was not cancelled")
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v; want one hedge, one hedge win", st)
	}
}

func TestBreakerOpensRoutesAwayThenRecovers(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	var flaky *httptest.Server
	flaky = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"boom"}`, http.StatusServiceUnavailable)
			return
		}
		okHandler("flaky", nil, nil, 0)(w, r)
	}))
	defer flaky.Close()
	steady := httptest.NewServer(okHandler("steady", nil, nil, 0))
	defer steady.Close()

	var events []telemetry.Event
	var evMu sync.Mutex
	sink := telemetry.EventSinkFunc(func(ev telemetry.Event) error {
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
		return nil
	})
	c := newClient(t, func(cfg *Config) {
		cfg.Breaker = BreakerConfig{Window: 8, MinSamples: 2, FailureRate: 0.5, OpenFor: 50 * time.Millisecond}
		cfg.EventSink = sink
	}, flaky.URL, steady.URL)
	key := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.ring.order(k)[0] == 0 {
			key = k
			break
		}
	}

	// Hammer the flaky home until its breaker opens.
	for i := 0; i < 4; i++ {
		res, err := c.SolveKeyed(context.Background(), key, fmt.Sprintf("warm-%d", i), solveBody())
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 200 {
			t.Fatalf("failover result = %+v", res)
		}
	}
	st := c.Stats()
	if st.BreakerOpens == 0 {
		t.Fatalf("stats = %+v; want the flaky replica's breaker opened", st)
	}
	// With the breaker open the home is skipped at pick time: a request
	// should go straight to the steady replica with no retry round.
	res, err := c.SolveKeyed(context.Background(), key, "spill", solveBody())
	if err != nil {
		t.Fatal(err)
	}
	if res.Replica != steady.URL || res.Retries != 0 {
		t.Fatalf("spillover result = %+v; want a first-attempt answer from the steady replica", res)
	}
	if got := c.Stats(); got.Spillovers == 0 {
		t.Fatalf("stats = %+v; want a spillover recorded", got)
	}

	// Heal the replica; after OpenFor the half-open probe closes the
	// breaker and the home serves again.
	broken.Store(false)
	time.Sleep(60 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := c.SolveKeyed(context.Background(), key, "recover", solveBody())
		if err != nil {
			t.Fatal(err)
		}
		if res.Replica == flaky.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered the healed home replica")
		}
		time.Sleep(20 * time.Millisecond)
	}
	st = c.Stats()
	if st.BreakerHalfOpens == 0 || st.BreakerCloses == 0 {
		t.Fatalf("stats = %+v; want half-open and close transitions", st)
	}
	// Breaker transitions must be visible in the event stream.
	evMu.Lock()
	defer evMu.Unlock()
	var sawOpen, sawClose bool
	for _, ev := range events {
		if ev.Ev == "client_breaker" && ev.Replica == flaky.URL {
			switch ev.Breaker {
			case "open":
				sawOpen = true
			case "closed":
				sawClose = true
			}
		}
	}
	if !sawOpen || !sawClose {
		t.Fatalf("client_breaker events missing transitions: open=%v close=%v", sawOpen, sawClose)
	}
}

func TestAbandonedHalfOpenProbeDoesNotWedgeBreaker(t *testing.T) {
	// The review scenario: replica 0 (the key's home) breaks, then
	// "revives" as a slow node — every half-open probe sent to it is
	// beaten by the hedge on replica 1 and abandoned mid-flight. A leaked
	// probe slot would pin the breaker half-open forever (force() only
	// acts on open circuits) and the home could never rejoin the fleet;
	// the round's outcome drain must release the slot so that once the
	// home is fast again a probe completes and the breaker closes.
	var mode atomic.Int32     // 0 = broken, 1 = revived but slow, 2 = fast
	var rejoinBy atomic.Int64 // the rejoin deadline in Unix ns, set before mode 2
	home := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case 0:
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"boom"}`, http.StatusServiceUnavailable)
		case 1:
			io.Copy(io.Discard, r.Body) //nolint:errcheck // unread body hides client disconnects
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
				return
			}
			okHandler("home", nil, nil, 0)(w, r)
		default:
			okHandler("home", nil, nil, 0)(w, r)
		}
	}))
	defer home.Close()
	otherOK := okHandler("other", nil, nil, 0)
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode.Load() == 2 {
			// Once the home is fast, the other replica answers only
			// after the rejoin deadline, so no hedge can beat a probe
			// the home's breaker admits, however loaded the host.
			io.Copy(io.Discard, r.Body) //nolint:errcheck // unread body hides client disconnects
			select {
			case <-time.After(time.Until(time.Unix(0, rejoinBy.Load()))):
			case <-r.Context().Done():
				return
			}
		}
		otherOK(w, r)
	}))
	defer other.Close()

	c := newClient(t, func(cfg *Config) {
		cfg.Breaker = BreakerConfig{Window: 8, MinSamples: 2, FailureRate: 0.5, OpenFor: 30 * time.Millisecond}
		cfg.HedgeQuantile = 0.9
		cfg.HedgeMin = 10 * time.Millisecond
		cfg.HedgeMax = 10 * time.Millisecond // force the hedge at 10ms
	}, home.URL, other.URL)
	key := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.ring.order(k)[0] == 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key homed on replica 0 in 64 probes")
	}

	// Trip the home's breaker.
	for i := 0; i < 4; i++ {
		if _, err := c.SolveKeyed(context.Background(), key, fmt.Sprintf("trip-%d", i), solveBody()); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.BreakerOpens == 0 {
		t.Fatalf("stats = %+v; want the home breaker opened", st)
	}

	// Revive the home as a slow node: half-open probes go out but lose
	// to the hedge on the healthy replica and are abandoned.
	mode.Store(1)
	time.Sleep(40 * time.Millisecond) // past OpenFor
	for i := 0; i < 5; i++ {
		res, err := c.SolveKeyed(context.Background(), key, fmt.Sprintf("slow-%d", i), solveBody())
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 200 {
			t.Fatalf("result during slow revival = %+v", res)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if st := c.Stats(); st.BreakerHalfOpens == 0 {
		t.Fatalf("stats = %+v; want at least one half-open probe attempted", st)
	}

	// Make the home fast: a fresh probe must be admitted, succeed, and
	// close the breaker. A leaked slot would keep the home out forever,
	// and with the other replica held past the deadline it is then the
	// only way the rejoin can fail. The last slow probe's slot is
	// released off the critical path, so let that drain finish first,
	// within the same deadline, rather than read a late drain as a leak.
	deadline := time.Now().Add(2 * time.Second)
	rejoinBy.Store(deadline.UnixNano())
	slotHeld := func() bool {
		b := c.brk[0]
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.probeInFlight
	}
	for slotHeld() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mode.Store(2)
	for {
		res, err := c.SolveKeyed(context.Background(), key, "rejoin", solveBody())
		if err != nil {
			t.Fatal(err)
		}
		if res.Replica == home.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("home replica never rejoined after abandoned probes; stats = %+v", c.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := c.Stats(); st.BreakerCloses == 0 {
		t.Fatalf("stats = %+v; want the home breaker closed again", st)
	}
}

func TestCallerCancellationIsNotDeadlineExhaustion(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // unread body hides client disconnects
		<-r.Context().Done()
	}))
	defer hang.Close()
	c := newClient(t, nil, hang.URL)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := c.Solve(ctx, solveBody())
	if err == nil {
		t.Fatal("cancelled request produced a success")
	}
	if errors.Is(err, ErrDeadlineExhausted) {
		t.Fatalf("plain cancellation misclassified as deadline exhaustion: %v", err)
	}
	if st := c.Stats(); st.Failures != 1 || st.DeadlineExhausted != 0 {
		t.Fatalf("stats = %+v; want a failure but no deadline exhaustion", st)
	}
}

func TestLosingHedgeFinalFailureDoesNotClaimHedgeWin(t *testing.T) {
	// The home hangs; the hedge replica answers a final (non-retryable)
	// 400. The request hedged, but nothing "won": HedgeWon must stay
	// false on a failing final attempt, matching the hedge_wins counter.
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // unread body hides client disconnects
		<-r.Context().Done()
	}))
	defer hang.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
	}))
	defer bad.Close()
	c := newClient(t, func(cfg *Config) {
		cfg.HedgeQuantile = 0.9
		cfg.HedgeMin = 10 * time.Millisecond
		cfg.HedgeMax = 10 * time.Millisecond
	}, hang.URL, bad.URL)
	key := ""
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.ring.order(k)[0] == 0 {
			key = k
			break
		}
	}
	req := solveBody()
	req.DeadlineMS = 2000
	res, err := c.SolveKeyed(context.Background(), key, "req-hedge-fail", req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusBadRequest || !res.Hedged {
		t.Fatalf("result = %+v; want the hedge's final 400", res)
	}
	if res.HedgeWon {
		t.Fatalf("result = %+v; a failing final attempt must not claim a hedge win", res)
	}
	if st := c.Stats(); st.HedgeWins != 0 {
		t.Fatalf("stats = %+v; want no hedge win counted", st)
	}
}

func TestNewDoesNotMutateCallerReplicaSlice(t *testing.T) {
	urls := []string{"http://a/", "http://b/"}
	if _, err := New(Config{Replicas: urls}); err != nil {
		t.Fatal(err)
	}
	if urls[0] != "http://a/" || urls[1] != "http://b/" {
		t.Fatalf("New mutated the caller's replica slice: %v", urls)
	}
}

func TestRetryAfterHTTPDateIsHonored(t *testing.T) {
	var calls atomic.Int64
	var firstRetryAt atomic.Int64
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// The HTTP-date form of Retry-After (RFC 9110). TimeFormat has
			// second resolution, so +2s leaves >= ~1s after truncation.
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		firstRetryAt.Store(int64(time.Since(start)))
		okHandler("s", nil, nil, 0)(w, r)
	}))
	defer srv.Close()
	c := newClient(t, nil, srv.URL) // backoff base 1ms: any long wait is Retry-After's
	res, err := c.Solve(context.Background(), solveBody())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("status = %d", res.Status)
	}
	if gap := time.Duration(firstRetryAt.Load()); gap < 900*time.Millisecond {
		t.Fatalf("retry arrived after %v; want the HTTP-date Retry-After honoured", gap)
	}
}

func TestAttemptEventsAreNumberedAndJoinable(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		okHandler("s", nil, nil, 0)(w, r)
	}))
	defer srv.Close()
	var events []telemetry.Event
	var mu sync.Mutex
	c := newClient(t, func(cfg *Config) {
		cfg.EventSink = telemetry.EventSinkFunc(func(ev telemetry.Event) error {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			return nil
		})
	}, srv.URL)
	if _, err := c.SolveKeyed(context.Background(), "k", "req-events", solveBody()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var attempts []int
	var final *telemetry.Event
	for i := range events {
		switch events[i].Ev {
		case "client_attempt":
			if events[i].ReqID != "req-events" {
				t.Fatalf("attempt event carries req_id %q; want req-events", events[i].ReqID)
			}
			attempts = append(attempts, events[i].Attempt)
		case "client_request":
			final = &events[i]
		}
	}
	if len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Fatalf("attempt numbering = %v; want [1 2]", attempts)
	}
	if final == nil || final.ReqID != "req-events" || final.Status != 200 || final.Attempt != 2 {
		t.Fatalf("client_request summary = %+v; want status 200 after 2 attempts", final)
	}
}

func TestRetryAfterIsHonored(t *testing.T) {
	var calls atomic.Int64
	var firstRetryAt atomic.Int64
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		firstRetryAt.Store(int64(time.Since(start)))
		okHandler("s", nil, nil, 0)(w, r)
	}))
	defer srv.Close()
	c := newClient(t, nil, srv.URL) // backoff base 1ms: any long wait is Retry-After's
	res, err := c.Solve(context.Background(), solveBody())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("status = %d", res.Status)
	}
	if gap := time.Duration(firstRetryAt.Load()); gap < 900*time.Millisecond {
		t.Fatalf("retry arrived after %v; want >= ~1s per Retry-After", gap)
	}
}
