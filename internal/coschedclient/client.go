// Package coschedclient is the fleet-serving client for a set of
// coschedd replicas: one logical Solve call survives replica crashes,
// slow nodes and overload instead of surfacing every transient failure
// to the caller.
//
// The client layers five mechanisms over the daemon's HTTP/JSON API:
//
//   - Deadline propagation. The caller's budget (request deadline_ms
//     and/or a context deadline) is anchored once, at the logical
//     request's start; every physical attempt re-computes the remaining
//     budget and sends it as the attempt's deadline_ms, so a retried
//     request never asks a replica for more time than the caller has
//     left, and total wall time never exceeds the caller's deadline.
//   - Retries. Only idempotent failures retry — connect/transport
//     errors and 429/503/504 verdicts; a 200 (even degraded) or any
//     other status is final. Backoff is capped exponential with seeded
//     jitter, and a server-sent Retry-After raises the wait: the
//     server's own estimate beats the client's guess.
//   - Hedging. After the client's observed latency quantile (a window
//     of recent successful attempt latencies), a speculative duplicate
//     fires at the next replica in the key's ring order;
//     first-success-wins and the loser's context is cancelled, which
//     the daemon propagates into the solver.
//   - Circuit breaking. Each backend has a closed/open/half-open
//     breaker over a failure-rate window; a 503 "draining" answer
//     (the /healthz drain signal, passively observed on rejected
//     requests) opens the circuit immediately.
//   - Consistent-hash routing. The request's workload key
//     (server.RequestKey, the key the daemon's solution cache is built
//     on) picks a home replica on a virtual-node hash ring, keeping each
//     workload's cached answers hot on one node; when the home is
//     open-circuited the request spills deterministically to the next
//     replica on the ring.
//
// Every physical attempt emits a client_attempt event (attempt number,
// replica, hedge flag, status) and each logical request a
// client_request summary, all carrying the caller's request ID — the
// same ID every replica logs — so a failed-over request remains one
// traceable unit of work across the fleet. Counters land in the
// client.* metric family.
package coschedclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosched/internal/server"
	"cosched/internal/telemetry"
)

// Config wires a Client. Replicas is required; everything else has a
// usable zero value.
type Config struct {
	// Replicas are the daemon base URLs (e.g. "http://127.0.0.1:8080"),
	// in a fleet-wide agreed order: the consistent-hash ring is built
	// over the indexes, so every client listing the same replicas in
	// the same order routes a workload to the same home node.
	Replicas []string
	// HTTPClient issues the physical attempts (nil means a default
	// transport client with no overall timeout — per-attempt budgets
	// come from the deadline machinery, not http.Client.Timeout).
	HTTPClient *http.Client
	// MaxAttempts bounds the sequential retry rounds of one logical
	// request (<= 0 means 3). Hedged duplicates ride inside a round and
	// do not consume rounds.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// between rounds (<= 0 mean 25ms and 1s); the wait for round r is
	// min(cap, base<<r) with seeded half-jitter, raised to any
	// server-sent Retry-After.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the backoff jitter (0 means 1) — deterministic
	// sequences keep chaos tests reproducible.
	Seed int64
	// HedgeQuantile is the observed-latency quantile after which a
	// round hedges to the next replica (0 means 0.9; negative disables
	// hedging). HedgeMin/HedgeMax clamp the resulting delay (<= 0 mean
	// 5ms and 1s); until hedgeWarmup successes are observed the delay
	// is HedgeMax.
	HedgeQuantile float64
	HedgeMin      time.Duration
	HedgeMax      time.Duration
	// VNodes is the ring's virtual-node count per replica (<= 0 means
	// 128 — enough points that a two-replica ring splits keys near
	// 50/50; 64 leaves visible arc lumps).
	VNodes int
	// Breaker tunes every backend's circuit breaker.
	Breaker BreakerConfig
	// Metrics receives the client.* family (nil means a private
	// registry).
	Metrics *telemetry.Registry
	// EventSink, when non-nil, receives client_attempt, client_request
	// and client_breaker events.
	EventSink telemetry.EventSink
}

// Stats is a snapshot of the client.* counters, for reports and tests.
type Stats struct {
	// Requests counts logical Solve calls; Attempts physical HTTP
	// calls; Retries rounds after the first; Hedges speculative
	// duplicates and HedgeWins the ones that answered first; Failovers
	// successes won by a non-home replica; Spillovers routes that
	// skipped an open-circuited home at pick time.
	Requests   int64 `json:"requests"`
	Attempts   int64 `json:"attempts"`
	Retries    int64 `json:"retries"`
	Hedges     int64 `json:"hedges"`
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	Spillovers int64 `json:"spillovers"`
	// Failures counts logical requests that returned no usable answer;
	// DeadlineExhausted the subset that ran out of caller budget.
	Failures          int64 `json:"failures"`
	DeadlineExhausted int64 `json:"deadline_exhausted"`
	// Breaker transition counts, summed over backends.
	BreakerOpens     int64 `json:"breaker_opens"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerCloses    int64 `json:"breaker_closes"`
}

// Result is one logical request's outcome. Status is the final HTTP
// verdict (200 on success; the last attempt's status otherwise);
// Response is decoded on 200.
type Result struct {
	Status   int
	Response *server.SolveResponse
	// Body is the final attempt's raw response body.
	Body []byte
	// Replica is the answering backend's base URL; Home the key's
	// ring-home backend (equal unless the request failed or hedged
	// over).
	Replica string
	Home    string
	// Attempts is the physical HTTP calls made; Retries the rounds
	// after the first; Hedged whether a duplicate fired and HedgeWon
	// whether it answered first.
	Attempts int
	Retries  int
	Hedged   bool
	HedgeWon bool
}

// ErrDeadlineExhausted reports that the caller's budget ran out before
// any attempt could succeed (wrapped in the returned error).
var ErrDeadlineExhausted = errors.New("caller deadline exhausted")

// minAttemptBudget is the least remaining budget worth spending an
// attempt (or a backoff sleep) on.
const minAttemptBudget = 2 * time.Millisecond

// hedgeWarmup is how many successful attempts the latency window needs
// before the hedge delay trusts its quantile.
const hedgeWarmup = 8

// latencyWindow bounds the recent-success latency ring the hedge delay
// is computed from.
const latencyWindow = 256

// hedgeRefreshEvery is how many recorded latencies between hedge-delay
// recomputations (sorting the window per record would be waste).
const hedgeRefreshEvery = 16

// Client is a fleet client over a fixed replica set. Construct with
// New; methods are safe for concurrent use.
type Client struct {
	cfg   Config
	httpc *http.Client
	ring  *hashRing
	brk   []*breaker
	epoch time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	latMu    sync.Mutex
	lats     [latencyWindow]float64
	latIdx   int
	latN     int
	latSince int
	hedgeMS  atomic.Uint64 // float64 bits of the cached hedge delay

	reqSeq atomic.Uint64

	requests, attempts, retries  *telemetry.Counter
	hedges, hedgeWins, failovers *telemetry.Counter
	spillovers, failures         *telemetry.Counter
	deadlineExhausted            *telemetry.Counter
	brkOpens, brkHalfs, brkClose *telemetry.Counter
	attemptMS                    *telemetry.Histogram
	backendState                 []*telemetry.Gauge
}

// attemptBoundsMS buckets physical attempt latencies (successes only).
var attemptBoundsMS = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// New validates cfg and builds the client.
func New(cfg Config) (*Client, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("coschedclient: config needs at least one replica")
	}
	// Normalize a private copy: the caller may reuse its slice.
	cfg.Replicas = append([]string(nil), cfg.Replicas...)
	for i, r := range cfg.Replicas {
		if r == "" {
			return nil, fmt.Errorf("coschedclient: replica %d is empty", i)
		}
		cfg.Replicas[i] = strings.TrimRight(r, "/")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.HedgeQuantile == 0 {
		cfg.HedgeQuantile = 0.9
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 5 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = time.Second
	}
	if cfg.HedgeMax < cfg.HedgeMin {
		cfg.HedgeMax = cfg.HedgeMin
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 128
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.New()
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	r := cfg.Metrics
	c := &Client{
		cfg:               cfg,
		httpc:             httpc,
		ring:              newRing(len(cfg.Replicas), cfg.VNodes),
		epoch:             time.Now(),
		rng:               rand.New(rand.NewSource(cfg.Seed)),
		requests:          r.Counter("client.requests"),
		attempts:          r.Counter("client.attempts"),
		retries:           r.Counter("client.retries"),
		hedges:            r.Counter("client.hedges"),
		hedgeWins:         r.Counter("client.hedge_wins"),
		failovers:         r.Counter("client.failovers"),
		spillovers:        r.Counter("client.spillovers"),
		failures:          r.Counter("client.failures"),
		deadlineExhausted: r.Counter("client.deadline_exhausted"),
		brkOpens:          r.Counter("client.breaker.opens"),
		brkHalfs:          r.Counter("client.breaker.half_opens"),
		brkClose:          r.Counter("client.breaker.closes"),
		attemptMS:         r.Histogram("client.attempt_ms", attemptBoundsMS),
	}
	c.hedgeMS.Store(floatBits(float64(cfg.HedgeMax) / float64(time.Millisecond)))
	c.brk = make([]*breaker, len(cfg.Replicas))
	c.backendState = make([]*telemetry.Gauge, len(cfg.Replicas))
	for i := range cfg.Replicas {
		i := i
		c.backendState[i] = r.Gauge(fmt.Sprintf("client.backend.%d.state", i))
		c.brk[i] = newBreaker(cfg.Breaker, time.Now, func(from, to breakerState, reason string) {
			c.onBreakerTransition(i, from, to, reason)
		})
	}
	return c, nil
}

// Stats snapshots the client.* counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:          c.requests.Value(),
		Attempts:          c.attempts.Value(),
		Retries:           c.retries.Value(),
		Hedges:            c.hedges.Value(),
		HedgeWins:         c.hedgeWins.Value(),
		Failovers:         c.failovers.Value(),
		Spillovers:        c.spillovers.Value(),
		Failures:          c.failures.Value(),
		DeadlineExhausted: c.deadlineExhausted.Value(),
		BreakerOpens:      c.brkOpens.Value(),
		BreakerHalfOpens:  c.brkHalfs.Value(),
		BreakerCloses:     c.brkClose.Value(),
	}
}

// Solve runs one logical request: routing on server.RequestKey(req)
// with a generated request ID.
func (c *Client) Solve(ctx context.Context, req *server.SolveRequest) (*Result, error) {
	return c.SolveKeyed(ctx, server.RequestKey(req), "", req)
}

// SolveKeyed runs one logical request routed on an explicit
// consistent-hash key (server.RequestKey, typically). reqID is
// the identity sent as X-Request-ID on every attempt ("" generates
// one); req.DeadlineMS, when set, is the caller's total budget across
// all attempts, not a per-attempt allowance.
func (c *Client) SolveKeyed(ctx context.Context, key, reqID string, req *server.SolveRequest) (*Result, error) {
	if reqID == "" {
		reqID = fmt.Sprintf("cc-%06x", c.reqSeq.Add(1))
	}
	return c.do(ctx, key, reqID, req)
}

// DoJSON runs one logical request from a pre-marshalled /v1/solve body
// (the loadgen path). The body is decoded into the wire schema so the
// client can route it and re-compute deadline_ms per attempt.
func (c *Client) DoJSON(ctx context.Context, reqID string, body []byte) (*Result, error) {
	var req server.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("coschedclient: undecodable request body: %w", err)
	}
	return c.SolveKeyed(ctx, server.RequestKey(&req), reqID, &req)
}

// attemptOut is one physical attempt's outcome crossing back to the
// round loop.
type attemptOut struct {
	status     int
	body       []byte
	retryAfter time.Duration
	err        error
	drain      bool // a 503 that announced the backend is draining
	replica    int
	n          int // attempt number, 1-based per logical request
	hedged     bool
	durMS      float64
}

// retryable reports whether the outcome may be retried on another
// attempt: transport errors and the three idempotent rejection
// verdicts. A 200 — even a degraded one — and every other status are
// final.
func (o *attemptOut) retryable() bool {
	if o.err != nil {
		return true
	}
	switch o.status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do is the logical-request engine: rounds of (primary + optional
// hedge) attempts walking the key's ring order, with breaker gating,
// budget re-computation, and backoff between rounds.
func (c *Client) do(ctx context.Context, key, reqID string, req *server.SolveRequest) (*Result, error) {
	c.requests.Add(1)
	start := time.Now()

	// The caller's budget: explicit deadline_ms and/or a context
	// deadline, whichever is tighter, anchored once at request start.
	budget := time.Duration(req.DeadlineMS) * time.Millisecond
	if dl, ok := ctx.Deadline(); ok {
		if r := time.Until(dl); budget <= 0 || r < budget {
			budget = r
		}
	}
	remaining := func() time.Duration {
		if budget <= 0 {
			return 0 // no budget: unlimited
		}
		return budget - time.Since(start)
	}

	order := c.ring.order(key)
	home := order[0]
	route := "/v1/solve"
	if req.Robust {
		route = "/v1/solve-robust"
	}

	var (
		attemptN int
		hedged   bool
		last     *attemptOut
		failedOn = make(map[int]bool, len(order))
		finish   = func(out *attemptOut, retriesDone int) (*Result, error) {
			return c.finish(reqID, start, home, out, attemptN, retriesDone, hedged)
		}
	)
	for round := 0; round < c.cfg.MaxAttempts; round++ {
		if round > 0 {
			c.retries.Add(1)
		}
		if budget > 0 && remaining() < minAttemptBudget {
			break
		}
		primary, forced, spilled := c.pick(order, failedOn)
		if spilled {
			c.spillovers.Add(1)
		}
		if forced {
			c.brk[primary].force()
		}

		out, hedgeFired := c.round(ctx, route, reqID, req, order, primary, budget, remaining, &attemptN, failedOn)
		hedged = hedged || hedgeFired
		if out == nil { // caller context died mid-round
			return nil, c.callerGone(ctx, reqID, start, attemptN, hedged)
		}
		last = out
		if !out.retryable() {
			return finish(out, round)
		}

		// Retryable: back off (the server's Retry-After beats the
		// client's schedule) within the remaining budget.
		if round == c.cfg.MaxAttempts-1 {
			break
		}
		wait := c.backoff(round, out.retryAfter)
		if budget > 0 {
			if rem := remaining() - minAttemptBudget; wait > rem {
				// Sleeping would exhaust the budget; stop with what we
				// know rather than oversleep the caller's deadline.
				if rem <= 0 {
					break
				}
				wait = rem
			}
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, c.callerGone(ctx, reqID, start, attemptN, hedged)
			}
		}
	}

	// Out of rounds or budget without a final answer.
	c.failures.Add(1)
	if budget > 0 && remaining() < minAttemptBudget {
		c.deadlineExhausted.Add(1)
	}
	if last != nil && last.err == nil {
		// The fleet's last word was an HTTP verdict (429/503/504):
		// surface it as the result so callers and load generators can
		// classify it.
		res, _ := c.finish(reqID, start, home, last, attemptN, c.cfg.MaxAttempts-1, hedged)
		return res, fmt.Errorf("coschedclient: no success after %d attempts; last status %d", attemptN, last.status)
	}
	reason := "no attempt completed"
	if last != nil && last.err != nil {
		reason = last.err.Error()
	}
	c.emitRequest(reqID, start, 0, attemptN, hedged, "", reason)
	if budget > 0 && remaining() < minAttemptBudget {
		return nil, fmt.Errorf("coschedclient: %w after %d attempts: %s", ErrDeadlineExhausted, attemptN, reason)
	}
	return nil, fmt.Errorf("coschedclient: no success after %d attempts: %s", attemptN, reason)
}

// callerGone classifies a caller-context death mid-request: a blown
// context deadline counts as deadline exhaustion, a plain cancellation
// is just a cancelled request.
func (c *Client) callerGone(ctx context.Context, reqID string, start time.Time, attemptN int, hedged bool) error {
	c.failures.Add(1)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		c.deadlineExhausted.Add(1)
		c.emitRequest(reqID, start, 0, attemptN, hedged, "", "caller deadline exhausted")
		return fmt.Errorf("coschedclient: %w after %d attempts: %v", ErrDeadlineExhausted, attemptN, ctx.Err())
	}
	c.emitRequest(reqID, start, 0, attemptN, hedged, "", "caller context cancelled")
	return fmt.Errorf("coschedclient: request cancelled after %d attempts: %w", attemptN, ctx.Err())
}

// round runs one retry round: a primary attempt, plus a hedged
// duplicate on the next ring replica if the primary is still silent
// after the hedge delay. First final answer wins and cancels the
// loser. Returns nil only when the caller's context died.
func (c *Client) round(ctx context.Context, route, reqID string, req *server.SolveRequest,
	order []int, primary int, budget time.Duration, remaining func() time.Duration,
	attemptN *int, failedOn map[int]bool) (out *attemptOut, hedgeFired bool) {

	resCh := make(chan attemptOut, 2)
	var cancels []context.CancelFunc
	launched, received := 0, 0
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
		if leftover := launched - received; leftover > 0 {
			// An abandoned attempt (the losing hedge, or every in-flight
			// attempt when the caller's context dies) still owes its
			// backend a breaker outcome: a half-open probe that never
			// reports would hold its probe slot forever and keep the
			// replica out of the fleet. Drain off the critical path.
			go func() {
				for i := 0; i < leftover; i++ {
					o := <-resCh
					if o.err != nil && errors.Is(o.err, context.Canceled) {
						// Killed by the cancels above, not a backend
						// verdict: release any probe slot it held
						// without recording an outcome.
						c.brk[o.replica].abandonProbe()
						continue
					}
					c.noteBreaker(&o)
				}
			}()
		}
	}()

	launch := func(replica int, hedge bool) {
		*attemptN++
		n := *attemptN
		var actx context.Context
		var cancel context.CancelFunc
		if budget > 0 {
			actx, cancel = context.WithTimeout(ctx, remaining())
		} else {
			actx, cancel = context.WithCancel(ctx)
		}
		cancels = append(cancels, cancel)
		c.attempts.Add(1)
		if hedge {
			c.hedges.Add(1)
		}
		launched++
		go func() { resCh <- c.attempt(actx, replica, n, hedge, route, reqID, req, remaining()) }()
	}
	launch(primary, false)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.hedgingEnabled() {
		if _, ok := c.pickHedge(order, primary); ok {
			d := c.hedgeDelay()
			if budget > 0 {
				if rem := remaining(); d >= rem {
					d = 0 // no room to hedge later; never fire
				}
			}
			if d > 0 {
				hedgeTimer = time.NewTimer(d)
				hedgeC = hedgeTimer.C
				defer hedgeTimer.Stop()
			}
		}
	}

	var firstFailure *attemptOut
	for received < launched {
		select {
		case o := <-resCh:
			received++
			c.noteBreaker(&o)
			if !o.retryable() {
				return &o, launched > 1
			}
			failedOn[o.replica] = true
			if firstFailure == nil {
				firstFailure = &o
			} else if o.retryAfter > firstFailure.retryAfter {
				firstFailure.retryAfter = o.retryAfter
			}
		case <-hedgeC:
			hedgeC = nil
			if rep, ok := c.pickHedge(order, primary); ok {
				if budget <= 0 || remaining() > minAttemptBudget {
					launch(rep, true)
				}
			}
		case <-ctx.Done():
			return nil, launched > 1
		}
	}
	return firstFailure, launched > 1
}

// pick chooses the round's primary replica: the first in ring order
// whose breaker allows traffic, preferring replicas that have not
// already failed this logical request. forced reports that every
// breaker was open (the home gets a forced probe); spilled that an
// open-circuited home was skipped.
func (c *Client) pick(order []int, failedOn map[int]bool) (replica int, forced, spilled bool) {
	fallback := -1
	for _, rep := range order {
		if !c.brk[rep].allow() {
			continue
		}
		if failedOn[rep] {
			if fallback < 0 {
				fallback = rep
			}
			continue
		}
		return rep, false, rep != order[0]
	}
	if fallback >= 0 {
		return fallback, false, fallback != order[0]
	}
	return order[0], true, false
}

// pickHedge returns the first breaker-allowed replica distinct from the
// primary, in ring order — without consuming a half-open probe slot
// (hedges only go to closed circuits).
func (c *Client) pickHedge(order []int, primary int) (int, bool) {
	for _, rep := range order {
		if rep != primary && c.brk[rep].currentState() == stateClosed {
			return rep, true
		}
	}
	return 0, false
}

// attempt issues one physical HTTP call and classifies the outcome.
// rem is the remaining caller budget at launch (0 = unlimited), which
// becomes the attempt's wire deadline_ms.
func (c *Client) attempt(ctx context.Context, replica, n int, hedged bool,
	route, reqID string, req *server.SolveRequest, rem time.Duration) attemptOut {

	out := attemptOut{replica: replica, n: n, hedged: hedged}
	wire := *req
	if rem > 0 {
		wire.DeadlineMS = int64(rem / time.Millisecond)
		if wire.DeadlineMS <= 0 {
			wire.DeadlineMS = 1
		}
	}
	body, err := json.Marshal(&wire)
	if err != nil {
		out.err = fmt.Errorf("marshal request: %w", err)
		return out
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.Replicas[replica]+route, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(server.RequestIDHeader, reqID)

	start := time.Now()
	resp, err := c.httpc.Do(httpReq)
	out.durMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		out.err = err
		c.emitAttempt(&out, reqID, err.Error())
		return out
	}
	defer resp.Body.Close() //nolint:errcheck
	out.status = resp.StatusCode
	out.body, err = io.ReadAll(resp.Body)
	out.durMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		// A truncated body after a 200 status is a mid-body failure:
		// treat it as transport-level and retryable.
		out.err = fmt.Errorf("read response: %w", err)
		out.status = 0
		out.body = nil
		c.emitAttempt(&out, reqID, err.Error())
		return out
	}
	if ra := strings.TrimSpace(resp.Header.Get("Retry-After")); ra != "" {
		// RFC 9110 allows both delta-seconds and an HTTP-date.
		if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
			out.retryAfter = time.Duration(secs) * time.Second
		} else if at, perr := http.ParseTime(ra); perr == nil {
			if d := time.Until(at); d > 0 {
				out.retryAfter = d
			}
		}
	}
	if out.status == http.StatusServiceUnavailable && bytes.Contains(out.body, []byte("draining")) {
		out.drain = true
	}
	if out.status == http.StatusOK {
		c.recordLatency(out.durMS)
	}
	c.emitAttempt(&out, reqID, "")
	return out
}

// noteBreaker feeds one attempt outcome into its backend's circuit.
// Transport errors and 429/503/504 and 5xx count as failures; anything
// the backend answered deterministically (200, 4xx) counts as healthy.
func (c *Client) noteBreaker(o *attemptOut) {
	b := c.brk[o.replica]
	switch {
	case o.err != nil:
		b.onFailure(false)
	case o.drain:
		b.onFailure(true)
	case o.status == http.StatusTooManyRequests || o.status >= http.StatusInternalServerError:
		b.onFailure(false)
	default:
		b.onSuccess()
	}
}

// finish builds the logical result from the final attempt and emits the
// request summary event.
func (c *Client) finish(reqID string, start time.Time, home int, out *attemptOut, attempts, retriesDone int, hedged bool) (*Result, error) {
	res := &Result{
		Status:   out.status,
		Body:     out.body,
		Replica:  c.cfg.Replicas[out.replica],
		Home:     c.cfg.Replicas[home],
		Attempts: attempts,
		Retries:  retriesDone,
		Hedged:   hedged,
		// HedgeWon means the hedge answered first — a failing final
		// attempt that happened to be a hedge did not "win" anything.
		HedgeWon: out.hedged && out.status == http.StatusOK,
	}
	if out.status == http.StatusOK {
		var sr server.SolveResponse
		if err := json.Unmarshal(out.body, &sr); err == nil {
			res.Response = &sr
		}
		if out.replica != home {
			c.failovers.Add(1)
		}
		if out.hedged {
			c.hedgeWins.Add(1)
		}
	}
	c.emitRequest(reqID, start, out.status, attempts, hedged, c.cfg.Replicas[out.replica], "")
	return res, nil
}

// backoff computes the wait before retry round r+1: capped exponential
// with seeded half-jitter, raised to the server's Retry-After hint.
func (c *Client) backoff(round int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BackoffBase << uint(round)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	c.rngMu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.rngMu.Unlock()
	d = d/2 + jitter
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// hedgingEnabled reports whether the config allows hedging at all.
func (c *Client) hedgingEnabled() bool {
	return c.cfg.HedgeQuantile > 0 && len(c.cfg.Replicas) > 1
}

// hedgeDelay is the current speculative-duplicate trigger: the
// configured quantile of recent successful attempt latencies, clamped
// to [HedgeMin, HedgeMax]; HedgeMax until the window warms up.
func (c *Client) hedgeDelay() time.Duration {
	ms := bitsFloat(c.hedgeMS.Load())
	d := time.Duration(ms * float64(time.Millisecond))
	if d < c.cfg.HedgeMin {
		d = c.cfg.HedgeMin
	}
	if d > c.cfg.HedgeMax {
		d = c.cfg.HedgeMax
	}
	return d
}

// recordLatency feeds a successful attempt's latency into the hedge
// window, refreshing the cached quantile every hedgeRefreshEvery
// records.
func (c *Client) recordLatency(ms float64) {
	c.attemptMS.Observe(ms)
	c.latMu.Lock()
	c.lats[c.latIdx] = ms
	c.latIdx = (c.latIdx + 1) % latencyWindow
	if c.latN < latencyWindow {
		c.latN++
	}
	c.latSince++
	if c.cfg.HedgeQuantile > 0 && c.latN >= hedgeWarmup && c.latSince >= hedgeRefreshEvery {
		c.latSince = 0
		tmp := make([]float64, c.latN)
		copy(tmp, c.lats[:c.latN])
		c.latMu.Unlock()
		sort.Float64s(tmp)
		idx := int(c.cfg.HedgeQuantile * float64(len(tmp)))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		if idx < 0 {
			idx = 0
		}
		c.hedgeMS.Store(floatBits(tmp[idx]))
		return
	}
	c.latMu.Unlock()
}

// onBreakerTransition is the per-backend breaker hook: counters, the
// state gauge, and a client_breaker event.
func (c *Client) onBreakerTransition(replica int, _, to breakerState, reason string) {
	switch to {
	case stateOpen:
		c.brkOpens.Add(1)
	case stateHalfOpen:
		c.brkHalfs.Add(1)
	case stateClosed:
		c.brkClose.Add(1)
	}
	c.backendState[replica].Set(int64(to))
	c.emit(telemetry.Event{
		Ev:      "client_breaker",
		Replica: c.cfg.Replicas[replica],
		Breaker: to.String(),
		Reason:  reason,
	})
}

// emitAttempt records one physical attempt in the event stream.
func (c *Client) emitAttempt(o *attemptOut, reqID, errText string) {
	c.emit(telemetry.Event{
		Ev:      "client_attempt",
		ReqID:   reqID,
		Replica: c.cfg.Replicas[o.replica],
		Attempt: o.n,
		Hedged:  o.hedged,
		Status:  o.status,
		DurMS:   o.durMS,
		Reason:  errText,
	})
}

// emitRequest records the logical request's summary in the event
// stream.
func (c *Client) emitRequest(reqID string, start time.Time, status, attempts int, hedged bool, replica, reason string) {
	c.emit(telemetry.Event{
		Ev:      "client_request",
		ReqID:   reqID,
		Status:  status,
		Attempt: attempts,
		Hedged:  hedged,
		Replica: replica,
		TotalMS: float64(time.Since(start)) / float64(time.Millisecond),
		Reason:  reason,
	})
}

// emit stamps and forwards an event to the configured sink.
func (c *Client) emit(ev telemetry.Event) {
	if c.cfg.EventSink == nil {
		return
	}
	ev.TMS = float64(time.Since(c.epoch)) / float64(time.Millisecond)
	c.cfg.EventSink.Emit(ev) //nolint:errcheck // telemetry must not fail the request
}

// floatBits / bitsFloat pack a float64 into the atomic hedge cache.
func floatBits(f float64) uint64 { return math.Float64bits(f) }

// bitsFloat is the inverse of floatBits.
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
