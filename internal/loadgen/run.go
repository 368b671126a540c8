package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Runner fires a built schedule at a coschedd daemon, open-loop: every
// request launches at its scheduled arrival time on its own goroutine,
// regardless of how many earlier requests are still in flight. The
// zero value needs BaseURL; Client defaults to a 30s-timeout client.
type Runner struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests (nil means a client with a 30s
	// timeout; the timeout is the generator's give-up bound and counts
	// as a transport error, not a server verdict).
	Client *http.Client
	// Do sends every request: it receives the schedule-assigned request
	// ID and the marshalled /v1/solve body and returns the final HTTP
	// verdict and the whole response body. Nil means a direct POST to
	// BaseURL carrying the ID as X-Request-ID. This is the fleet-client
	// hook — coschedclient's DoJSON plugs in here so the ladder
	// exercises retries, hedging and failover while the runner keeps
	// doing open-loop arrivals and latency accounting. A zero status
	// with a non-nil error counts as a transport failure; a non-zero
	// status counts as that verdict even when err is non-nil (the daemon
	// answered, the fleet client gave up on it).
	Do func(ctx context.Context, id string, body []byte) (status int, respBody []byte, err error)
}

// defaultClient is the HTTP client of a Runner that sets none.
var defaultClient = &http.Client{Timeout: 30 * time.Second}

// solveReply is the subset of the daemon's SolveResponse the runner
// reads back for accounting.
type solveReply struct {
	Cached   bool `json:"cached"`
	Shared   bool `json:"shared"`
	Degraded bool `json:"degraded"`
}

// slowestK is how many of a rung's slowest request IDs the report keeps
// — enough to find the tail's traces, few enough to stay readable.
const slowestK = 5

// failureSampleCap bounds the per-rung failure sample so a rung that is
// 100% rejections does not bloat the report.
const failureSampleCap = 20

// rungAgg accumulates one rung's results under a lock (many in-flight
// requests finish concurrently).
type rungAgg struct {
	mu       sync.Mutex
	hist     *Hist
	status   StatusBreakdown
	hits     int64
	shared   int64
	degraded int64
	slowest  []SlowRequest    // worst-first, at most slowestK
	failures []RequestFailure // first failureSampleCap non-200 outcomes
}

func (a *rungAgg) record(id string, latency time.Duration, code int, reply *solveReply, errText string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if errText != "" {
		a.status.Errors++
		if len(a.failures) < failureSampleCap {
			a.failures = append(a.failures, RequestFailure{ID: id, Err: errText})
		}
		return // no response: nothing to time or classify further
	}
	switch code {
	case http.StatusOK:
		a.status.OK++
	case http.StatusTooManyRequests:
		a.status.Rejected429++
	case http.StatusServiceUnavailable:
		a.status.Rejected503++
	case http.StatusGatewayTimeout:
		a.status.Rejected504++
	default:
		a.status.Other++
	}
	if code != http.StatusOK && len(a.failures) < failureSampleCap {
		a.failures = append(a.failures, RequestFailure{ID: id, Status: code})
	}
	a.hist.Record(latency)
	lm := ms(latency)
	if len(a.slowest) < slowestK || lm > a.slowest[len(a.slowest)-1].LatencyMS {
		entry := SlowRequest{ID: id, LatencyMS: lm, Status: code}
		if reply != nil {
			entry.Cached = reply.Cached || reply.Shared
		}
		a.slowest = append(a.slowest, entry)
		sort.Slice(a.slowest, func(i, j int) bool { return a.slowest[i].LatencyMS > a.slowest[j].LatencyMS })
		if len(a.slowest) > slowestK {
			a.slowest = a.slowest[:slowestK]
		}
	}
	if reply != nil {
		if reply.Cached {
			a.hits++
		}
		if reply.Shared {
			a.shared++
		}
		if reply.Degraded {
			a.degraded++
		}
	}
}

// Run executes the schedule against the daemon and aggregates the
// results into a Report (BenchmarkCmd and Environment are left for the
// caller to fill). Cancelling ctx stops launching new requests; already
// fired ones are awaited. The call returns after every fired request
// has resolved, which can be up to one client-timeout past the last
// arrival.
func (r *Runner) Run(ctx context.Context, cfg Config, sched []Request) (*Report, error) {
	cfg = cfg.withDefaults()

	aggs := make([]*rungAgg, len(cfg.Rungs))
	fired := make([]int64, len(cfg.Rungs))
	for i := range aggs {
		aggs[i] = &rungAgg{hist: NewHist()}
	}

	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
launch:
	for i := range sched {
		req := &sched[i]
		// Open loop: wait for the arrival time, never for completions.
		if wait := req.At - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break launch
			}
		} else if ctx.Err() != nil {
			break launch
		}
		fired[req.Rung]++
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.one(ctx, req, aggs[req.Rung])
		}()
	}
	wg.Wait()

	report := &Report{
		Config: ReportConfig{
			PoolSize:     cfg.PoolSize,
			WarmFraction: cfg.WarmFraction,
			Seed:         cfg.Seed,
			Synthetic:    cfg.Synthetic,
			Method:       cfg.Method,
			DeadlineMS:   cfg.DeadlineMS,
		},
	}
	for i, rung := range cfg.Rungs {
		a := aggs[i]
		st := a.status
		responses := st.OK + st.Rejected429 + st.Rejected503 + st.Rejected504 + st.Other
		res := RungResult{
			OfferedRPS:  rung.RPS,
			DurationS:   rung.Duration.Seconds(),
			Requests:    fired[i],
			AchievedRPS: float64(responses) / rung.Duration.Seconds(),
			Latency: LatencyMS{
				P50:  ms(a.hist.Quantile(0.50)),
				P90:  ms(a.hist.Quantile(0.90)),
				P99:  ms(a.hist.Quantile(0.99)),
				P999: ms(a.hist.Quantile(0.999)),
				Mean: ms(a.hist.Mean()),
				Max:  ms(a.hist.Max()),
			},
			Status:    st,
			CacheHits: a.hits,
			Shared:    a.shared,
			Degraded:  a.degraded,
			Slowest:   a.slowest,
			Failures:  a.failures,
		}
		if st.OK > 0 {
			res.CacheHitRate = float64(a.hits) / float64(st.OK)
		}
		report.Rungs = append(report.Rungs, res)
	}
	return report, ctx.Err()
}

// one issues a single request through Do (a direct POST when Do is nil)
// and records the outcome; latency runs from the send to the last byte
// of the response body.
func (r *Runner) one(ctx context.Context, req *Request, agg *rungAgg) {
	do := r.Do
	if do == nil {
		do = r.post
	}
	sent := time.Now()
	status, body, err := do(ctx, req.ID, req.Body)
	latency := time.Since(sent)
	if status == 0 {
		errText := "request failed"
		if err != nil {
			errText = err.Error()
		}
		agg.record(req.ID, 0, 0, nil, errText)
		return
	}
	var reply *solveReply
	if status == http.StatusOK {
		reply = &solveReply{}
		if json.Unmarshal(body, reply) != nil {
			reply = nil
		}
	}
	agg.record(req.ID, latency, status, reply, "")
}

// post is the default Do: a direct POST of body to the daemon's
// /v1/solve carrying id as X-Request-ID — so the daemon's observability
// joins on it — read to the last byte.
func (r *Runner) post(ctx context.Context, id string, body []byte) (int, []byte, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.BaseURL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if id != "" {
		httpReq.Header.Set("X-Request-ID", id)
	}
	client := r.Client
	if client == nil {
		client = defaultClient
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	respBody, err := io.ReadAll(resp.Body)
	return resp.StatusCode, respBody, err
}

// ms converts a duration to float milliseconds for the report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
