// Package server implements the coschedd serving daemon: an HTTP/JSON
// API over the cosched solver with a bounded, autoscaling worker pool
// (grown on queue-delay pressure, shrunk after sustained idleness,
// fixed when WorkersMin == WorkersMax), an admission queue that
// propagates per-request deadlines into SolveContext, a solved-schedule
// cache keyed by the request (internal/solvecache; byte-bounded,
// optionally spilled to disk and restart-warm), and graceful drain.
//
// A request is decoded (at most 1 MiB), checked against the drain flag
// and the request bounds, keyed by RequestKey plus its options
// fingerprint and endpoint, and answered through one solution-cache Do
// call on its handler goroutine. Only that call's leader — or a request
// that bypasses the cache — builds an instance and takes a queue slot
// and a worker, so hits and joiners answer even when the queue is full.
// Each solve builds its own instance; the degradation memo lives in the
// solve's degradation.Cost and dies with it.
//
// Endpoints:
//
//	POST /v1/solve        — schedule one workload with one method
//	POST /v1/solve-robust — same, through the SolveRobust fallback ladder
//	POST /v1/batch        — a list of solve requests answered together
//	GET  /healthz         — liveness and drain state (503 once draining)
//	GET  /debug/requests  — the last 256 request records, as a table
//
// plus the telemetry surface (/metrics, /debug/vars, /debug/pprof,
// /debug/trace) from internal/telemetry.DebugMux. Request admission,
// queueing, solving and cache effectiveness are all measured into the
// server.* metric family (see DESIGN.md §6b).
//
// Every request has one record, a "request" telemetry.Event. The
// observe middleware allocates it with the request's ID — accepted from
// X-Request-ID or generated, echoed back on the response header and
// body — the request path writes its cache outcome into it, and when
// the request runs a solve of its own, admission hands it to the task
// and the worker writes the queue and solve facts. At response write that one
// value becomes the access-log line, the flight-recorder event
// (joinable to the solver's solve_id timeline) and the /debug/requests
// row, and is counted into per-route RED metrics and SLO burn rates
// (see obs.go).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cosched"
	"cosched/internal/solvecache"
	"cosched/internal/telemetry"
)

// Config sizes and wires a Server. The zero value is usable: it means
// two workers, a 64-deep queue, a 128-entry solution cache, no default
// or maximum deadline, and a private metrics registry.
type Config struct {
	// Workers is the number of solver goroutines (<= 0 means 2). Each
	// runs one solve at a time, so Workers bounds solver concurrency.
	// It seeds WorkersMin/WorkersMax when those are unset, which keeps
	// the pool fixed — the pre-autoscaler behaviour.
	Workers int
	// WorkersMin and WorkersMax bound the autoscaled pool. Unset (<= 0)
	// they both default to Workers, i.e. a fixed pool; WorkersMax below
	// WorkersMin is raised to it. When WorkersMax > WorkersMin an
	// autoscaler goroutine resizes the pool between the two: it grows on
	// queue-delay pressure and shrinks after sustained idleness (see
	// the autoscaler type and the Scale* knobs below).
	WorkersMin int
	WorkersMax int
	// ScaleInterval is how often the autoscaler decides (<= 0 means 1s).
	// Each decision looks at the queue-delay observations made since the
	// previous one.
	ScaleInterval time.Duration
	// ScaleUpP90 grows the pool when the decision window's p90 queue
	// delay exceeds it (<= 0 means 25ms).
	ScaleUpP90 time.Duration
	// ScaleIdle shrinks the pool one worker at a time after this long
	// with no admissions and an empty queue (<= 0 means 5s).
	ScaleIdle time.Duration
	// ScaleCooldown is the minimum gap between scale events (<= 0 means
	// 2s); together with ScaleIdle it is the hysteresis that stops the
	// pool flapping under oscillating load.
	ScaleCooldown time.Duration
	// QueueDepth bounds the admission queue of cache misses (<= 0 means
	// 64); a miss that finds it full is rejected with 429 rather than
	// buffered unboundedly.
	QueueDepth int
	// CacheEntries bounds the solved-schedule cache's entry count (< 0
	// disables caching entirely, 0 means 128).
	CacheEntries int
	// CacheBytes bounds the solved-schedule cache's resident bytes —
	// each entry charged its key plus Solution.SizeBytes — so a cache
	// of 64-job schedules and one of 4-job schedules mean the same
	// memory (< 0 means entry-bound only, 0 means 64 MiB).
	CacheBytes int64
	// CacheDir, when non-empty, persists the solution cache to a
	// write-behind segment log under this directory and pre-warms the
	// cache from it at construction, so a restarted daemon answers
	// previously-solved requests as hits (see solvecache's spill
	// documentation for the format and crash semantics).
	CacheDir string
	// DefaultDeadline applies to requests that set no deadline_ms
	// (0 means no deadline). MaxDeadline caps every request's deadline
	// (0 means uncapped).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// SolveParallelism is the expansion-worker count applied to requests
	// that set no parallelism of their own (<= 0 means 1, the exact
	// sequential path — a daemon already runs Workers solves
	// concurrently, so per-solve parallelism is opt-in).
	SolveParallelism int
	// Metrics receives the server.* metric family (nil means a private
	// registry; pass telemetry.Default to share the process registry).
	Metrics *telemetry.Registry
	// Recorder, when non-nil, receives every solve's event stream and is
	// exposed under /debug/trace.
	Recorder *telemetry.FlightRecorder
	// AccessLog, when non-nil, receives one structured line per observed
	// request with the full phase breakdown (cmd/coschedd wires a JSON
	// handler here; see logAccess in obs.go for the field set).
	AccessLog *slog.Logger
	// SLOLatency is the latency objective behind server.slo.latency: a
	// 200 response is good when served within it (<= 0 means 500ms).
	SLOLatency time.Duration
	// SLOObjective is the target good fraction for both SLOs (0 means
	// 0.99).
	SLOObjective float64
	// ReplicaID names this daemon within a fleet: it appears in
	// /healthz, in every access-log line and request trace event, so a
	// fleet client's telemetry can be joined to the replica that
	// answered. Empty means a boot-generated "r-<4 hex>" ID.
	ReplicaID string
}

// The Retry-After hints sent with 429 (admission queue full) and 503
// (draining) rejections: the server's own estimate of when retrying is
// worth a client's time.
const (
	retryAfterQueueFull = time.Second
	retryAfterDraining  = 2 * time.Second
)

// Server is the daemon's engine: handlers answer from the solution
// cache and feed its misses to an admission queue that an autoscaled
// worker pool drains (fixed-size when WorkersMin == WorkersMax).
// Construct with New, mount Handler, stop with Drain.
//
// The solution cache stores *solvecache.Solution values — the rendered
// answer plus its solve metadata, not the live *cosched.Schedule — so
// cached entries serialise to the spill log and survive a restart. Each
// request consults the cache through exactly one Do call (never a Get
// probe first), so the cache's Stats count one outcome per request.
type Server struct {
	cfg   Config
	cache *solvecache.Cache[*solvecache.Solution]
	queue chan *task
	epoch time.Time

	workers sync.WaitGroup
	pending sync.WaitGroup

	scaler    *autoscaler
	scaleStop chan struct{}
	scaleDone sync.WaitGroup

	mu         sync.Mutex
	draining   bool
	workerQuit []chan struct{} // one per live worker; closing the last retires it

	admitted      *telemetry.Counter
	solves        *telemetry.Counter
	rejectedQueue *telemetry.Counter
	rejectedDL    *telemetry.Counter
	rejectedDrain *telemetry.Counter
	rejectedGone  *telemetry.Counter
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter
	cacheShared   *telemetry.Counter
	cacheEvicts   *telemetry.Counter
	cacheBytes    *telemetry.Gauge
	cacheEntries  *telemetry.Gauge
	cacheRetries  *telemetry.Gauge
	cacheSpilled  *telemetry.Gauge
	cacheReplayed *telemetry.Counter
	cacheSkipped  *telemetry.Counter
	queueDelay    *telemetry.Histogram
	scaleWorkers  *telemetry.Gauge
	scaleGrows    *telemetry.Counter
	scaleShrinks  *telemetry.Counter
	scaleP90      *telemetry.FloatGauge

	// Request-scoped observability (obs.go).
	inflight     *telemetry.Gauge
	routes       map[string]*routeMetrics
	sloAvail     *telemetry.SLO
	sloLatency   *telemetry.SLO
	sloLatencyMS float64
	requests     *telemetry.FlightRecorder // request records behind /debug/requests
}

// queueDelayBoundsMS buckets the admission-to-pop delay: sub-millisecond
// pops on an idle pool through multi-second waits behind long solves.
var queueDelayBoundsMS = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000}

// New builds the server and starts its worker pool (WorkersMin workers;
// the autoscaler, when WorkersMax > WorkersMin, grows it from there).
// When CacheDir is set the solution cache is pre-warmed from its spill
// log before New returns; an unusable cache directory fails the boot.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.WorkersMin <= 0 {
		cfg.WorkersMin = cfg.Workers
	}
	if cfg.WorkersMax < cfg.WorkersMin {
		cfg.WorkersMax = cfg.WorkersMin
	}
	if cfg.ScaleInterval <= 0 {
		cfg.ScaleInterval = defaultScaleInterval
	}
	if cfg.ScaleUpP90 <= 0 {
		cfg.ScaleUpP90 = time.Duration(defaultScaleUpP90MS * float64(time.Millisecond))
	}
	if cfg.ScaleIdle <= 0 {
		cfg.ScaleIdle = defaultScaleIdle
	}
	if cfg.ScaleCooldown <= 0 {
		cfg.ScaleCooldown = defaultScaleCooldown
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 128
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.SLOLatency <= 0 {
		cfg.SLOLatency = 500 * time.Millisecond
	}
	if cfg.ReplicaID == "" {
		cfg.ReplicaID = newReplicaID()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.New()
	}
	r := cfg.Metrics
	s := &Server{
		cfg:           cfg,
		queue:         make(chan *task, cfg.QueueDepth),
		epoch:         time.Now(),
		admitted:      r.Counter("server.admitted"),
		solves:        r.Counter("server.solves"),
		rejectedQueue: r.Counter("server.rejected.queue_full"),
		rejectedDL:    r.Counter("server.rejected.deadline"),
		rejectedDrain: r.Counter("server.rejected.draining"),
		rejectedGone:  r.Counter("server.rejected.client_gone"),
		cacheHits:     r.Counter("server.cache.hits"),
		cacheMisses:   r.Counter("server.cache.misses"),
		cacheShared:   r.Counter("server.cache.shared"),
		cacheEvicts:   r.Counter("server.cache.evictions"),
		cacheBytes:    r.Gauge("server.cache.bytes"),
		cacheEntries:  r.Gauge("server.cache.entries"),
		cacheRetries:  r.Gauge("server.cache.retries"),
		cacheSpilled:  r.Gauge("server.cache.spilled"),
		cacheReplayed: r.Counter("server.cache.replayed"),
		cacheSkipped:  r.Counter("server.cache.replay_skipped"),
		queueDelay:    r.Histogram("server.queue_delay_ms", queueDelayBoundsMS),
		scaleWorkers:  r.Gauge("server.autoscale.workers"),
		scaleGrows:    r.Counter("server.autoscale.grow"),
		scaleShrinks:  r.Counter("server.autoscale.shrink"),
		scaleP90:      r.FloatGauge("server.autoscale.queue_p90_ms"),
	}
	s.inflight = r.Gauge("server.requests_inflight")
	s.routes = make(map[string]*routeMetrics)
	for _, route := range []string{"v1_solve", "v1_solve_robust", "v1_batch", "healthz"} {
		s.routes[route] = newRouteMetrics(r, route)
	}
	s.sloLatencyMS = float64(cfg.SLOLatency) / float64(time.Millisecond)
	s.sloAvail = telemetry.NewSLO(r, telemetry.SLOConfig{
		Name:      "server.slo.availability",
		Objective: cfg.SLOObjective,
	})
	s.sloLatency = telemetry.NewSLO(r, telemetry.SLOConfig{
		Name:      "server.slo.latency",
		Objective: cfg.SLOObjective,
	})
	s.requests = telemetry.NewFlightRecorder(requestRingSize)
	if cfg.CacheEntries > 0 {
		ccfg := solvecache.Config[*solvecache.Solution]{
			Capacity: cfg.CacheEntries,
			SizeOf:   (*solvecache.Solution).SizeBytes,
			OnEvict: func(string) {
				s.cacheEvicts.Add(1)
				// s.cache is nil while spill replay runs inside
				// NewWithConfig; bound-driven replay evictions count
				// but have no cache to snapshot yet.
				if s.cache != nil {
					s.refreshCacheGauges()
					s.emitCacheEvent("evict", 1)
				}
			},
		}
		if cfg.CacheBytes > 0 {
			ccfg.MaxBytes = cfg.CacheBytes
		}
		if cfg.CacheDir != "" {
			ccfg.Spill = &solvecache.SpillConfig{Dir: cfg.CacheDir}
		}
		cache, err := solvecache.NewWithConfig(ccfg)
		if err != nil {
			return nil, err
		}
		s.cache = cache
		if st := cache.Stats(); st.Replayed > 0 || st.ReplaySkipped > 0 {
			s.cacheReplayed.Add(st.Replayed)
			s.cacheSkipped.Add(st.ReplaySkipped)
			s.emitCacheEvent("replay", st.Replayed)
		}
		s.refreshCacheGauges()
	}
	for i := 0; i < cfg.WorkersMin; i++ {
		quit := make(chan struct{})
		s.workerQuit = append(s.workerQuit, quit)
		s.workers.Add(1)
		go s.worker(quit)
	}
	s.scaleWorkers.Set(int64(cfg.WorkersMin))
	if cfg.WorkersMax > cfg.WorkersMin {
		s.scaler = &autoscaler{
			min:        cfg.WorkersMin,
			max:        cfg.WorkersMax,
			upP90MS:    float64(cfg.ScaleUpP90) / float64(time.Millisecond),
			idle:       cfg.ScaleIdle,
			cooldown:   cfg.ScaleCooldown,
			now:        time.Now,
			delay:      s.queueDelay,
			queueLen:   func() int { return len(s.queue) },
			workers:    s.Workers,
			grow:       s.addWorker,
			shrink:     s.removeWorker,
			lastActive: s.epoch,
			p90Gauge:   s.scaleP90,
		}
		s.scaleStop = make(chan struct{})
		s.scaleDone.Add(1)
		go s.autoscaleLoop()
	}
	return s, nil
}

// refreshCacheGauges copies one snapshot of the solution cache into the
// server.cache.* gauges.
func (s *Server) refreshCacheGauges() {
	st := s.cache.Stats()
	s.cacheBytes.Set(st.Bytes)
	s.cacheEntries.Set(int64(st.Entries))
	s.cacheRetries.Set(st.Retries)
	s.cacheSpilled.Set(st.Spilled)
}

// emitCacheEvent records one solution-cache state change ("cache"
// telemetry event) on the flight recorder, when one is wired.
func (s *Server) emitCacheEvent(reason string, n int64) {
	if s.cfg.Recorder == nil {
		return
	}
	s.cfg.Recorder.Emit(telemetry.Event{ //nolint:errcheck // ring never errors
		Ev:      "cache",
		Reason:  reason,
		N:       int(n),
		Bytes:   s.cache.Stats().Bytes,
		TMS:     float64(time.Since(s.epoch)) / float64(time.Millisecond),
		Replica: s.cfg.ReplicaID,
	})
}

// Handler returns the daemon's full route set: the /v1 solve API,
// /healthz, /debug/requests, and the telemetry endpoints. The API
// routes are wrapped in the request-observability middleware (obs.go).
func (s *Server) Handler() http.Handler {
	mux := telemetry.DebugMux(s.cfg.Metrics, s.cfg.Recorder)
	mux.HandleFunc("POST /v1/solve", s.observe("v1_solve", true,
		func(w http.ResponseWriter, r *http.Request, ev *telemetry.Event) { s.handleSolve(w, r, ev, false) }))
	mux.HandleFunc("POST /v1/solve-robust", s.observe("v1_solve_robust", true,
		func(w http.ResponseWriter, r *http.Request, ev *telemetry.Event) { s.handleSolve(w, r, ev, true) }))
	mux.HandleFunc("POST /v1/batch", s.observe("v1_batch", true, s.handleBatch))
	mux.HandleFunc("GET /healthz", s.observe("healthz", false, s.handleHealthz))
	mux.HandleFunc("GET /debug/requests", s.handleRequests)
	return mux
}

// Drain stops admission (new requests get 503), waits for every
// admitted request to finish, then stops the workers. It returns
// ctx.Err() if the context expires first; the pool keeps draining in
// the background in that case.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already && s.scaleStop != nil {
		close(s.scaleStop) // no resizes once the drain begins
	}
	s.scaleDone.Wait()

	done := make(chan struct{})
	go func() {
		s.pending.Wait()
		if !already {
			close(s.queue)
		}
		s.workers.Wait()
		s.mu.Lock()
		s.workerQuit = nil // every worker has exited
		s.mu.Unlock()
		s.scaleWorkers.Set(0)
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CacheStats exposes the solution cache's counters (zero Stats when
// caching is disabled).
func (s *Server) CacheStats() solvecache.Stats {
	if s.cache == nil {
		return solvecache.Stats{}
	}
	return s.cache.Stats()
}

// CloseCache flushes and closes the solution cache's spill log, making
// everything written so far durable. Call it after Drain; the cache
// itself stays usable, its stores just stop being persisted.
func (s *Server) CloseCache() error {
	if s.cache == nil {
		return nil
	}
	return s.cache.Close()
}

// handleHealthz reports liveness: 503 {"status":"draining"} once drain
// begins — the signal a load balancer needs to stop routing before the
// listener closes — and 200 with queue and worker occupancy otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *telemetry.Event) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		setRetryAfter(w, retryAfterDraining)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":     "draining",
			"replica_id": s.cfg.ReplicaID,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"replica_id": s.cfg.ReplicaID,
		"queue_len":  len(s.queue),
		"queue_cap":  cap(s.queue),
		"workers":    s.Workers(),
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, ev *telemetry.Event, robust bool) {
	var req SolveRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		herr.write(w)
		return
	}
	resp, herr := s.answer(r.Context(), &req, robust, ev)
	if herr != nil {
		herr.write(w)
		return
	}
	encodeStart := time.Now()
	writeJSON(w, http.StatusOK, resp)
	ev.EncodeMS = float64(time.Since(encodeStart)) / float64(time.Millisecond)
}

// BatchRequest is the /v1/batch body: requests answered positionally.
type BatchRequest struct {
	// Requests lists the solves (at most maxBatchItems); each may
	// independently set robust.
	Requests []SolveRequest `json:"requests"`
}

// BatchItem is one positional result of a /v1/batch call: exactly one
// of Response or Error is populated, plus the item's HTTP-equivalent
// status code.
type BatchItem struct {
	// Status is the HTTP status this request would have received alone.
	Status int `json:"status"`
	// Response is the solve result when Status is 200.
	Response *SolveResponse `json:"response,omitempty"`
	// Error describes the failure when Status is not 200.
	Error string `json:"error,omitempty"`
}

// BatchResponse answers a BatchRequest, one item per request in order.
type BatchResponse struct {
	// Items holds each request's outcome at its request index.
	Items []BatchItem `json:"items"`
}

// handleBatch answers a batch under one umbrella request ID (every
// item's response carries it). Each item runs the request path on its
// own goroutine with a record of its own, so its hits never wait for
// its misses, and the batch's one request record aggregates the items
// that reached the cache step — worst queue wait, summed solve time,
// "mixed" when cache outcomes differ.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, ev *telemetry.Event) {
	var req BatchRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		herr.write(w)
		return
	}
	switch n := len(req.Requests); {
	case n == 0:
		writeError(w, http.StatusBadRequest, "batch has no requests")
		return
	case n > maxBatchItems:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch has %d requests; the limit is %d", n, maxBatchItems))
		return
	}
	ev.N = len(req.Requests)
	items := make([]BatchItem, len(req.Requests))
	itemEvs := make([]telemetry.Event, len(req.Requests))
	var wg sync.WaitGroup
	for i := range req.Requests {
		itemEvs[i].ReqID = ev.ReqID
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, herr := s.answer(r.Context(), &req.Requests[i], req.Requests[i].Robust, &itemEvs[i])
			if herr != nil {
				items[i] = BatchItem{Status: herr.status, Error: herr.msg}
			} else {
				items[i] = BatchItem{Status: http.StatusOK, Response: resp}
			}
		}()
	}
	wg.Wait()
	for i := range itemEvs {
		item := &itemEvs[i]
		if item.Cache == "" {
			continue // refused before the cache step
		}
		ev.QueueMS = max(ev.QueueMS, item.QueueMS)
		ev.SolveMS += item.SolveMS
		ev.Degraded = ev.Degraded || item.Degraded
		if ev.Reason == "" {
			ev.Reason = item.Reason
		}
		ev.Parallelism = item.Parallelism
		switch {
		case ev.Cache == "":
			ev.Cache = item.Cache
		case ev.Cache != item.Cache:
			ev.Cache = "mixed"
		}
	}
	encodeStart := time.Now()
	writeJSON(w, http.StatusOK, BatchResponse{Items: items})
	ev.EncodeMS = float64(time.Since(encodeStart)) / float64(time.Millisecond)
}

// Request bounds. A body above maxBodyBytes is refused with 413; a
// synthetic or synthetic_large count, or a spec's process count, above
// maxProcesses, and a batch above maxBatchItems, with 400 — before the
// request key, the cache or any build, so no number a client sends can
// make the daemon build more than maxProcesses processes.
const (
	maxBodyBytes  = 1 << 20
	maxProcesses  = 4096
	maxBatchItems = 256
)

// decodeBody decodes a POST body of at most maxBodyBytes into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *httpError {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooBig):
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
	default:
		return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf("bad request body: %v", err)}
	}
}

// httpError is a refused request with its HTTP mapping; a non-zero
// retryAfter becomes the rejection's Retry-After header, telling
// well-behaved clients when a retry might succeed. It is also the error
// a cache leader's compute returns, which the cache hands to that leader
// alone.
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

// Error returns the message.
func (e *httpError) Error() string { return e.msg }

// write renders the rejection, header included.
func (e *httpError) write(w http.ResponseWriter) {
	setRetryAfter(w, e.retryAfter)
	writeError(w, e.status, e.msg)
}

// statusClientGone is the non-standard 499 (client closed request):
// the caller vanished — hedge duplicate cancelled, connection dropped —
// before or during its solve. Nobody receives the response; the status
// exists for the access log and metrics.
const statusClientGone = 499

// setRetryAfter stamps a Retry-After header (whole seconds, rounded up;
// 0 is a no-op).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	if d > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((d+time.Second-1)/time.Second)))
	}
}

// answer is the request path of one solve, a /v1/solve body or one
// /v1/batch item: drain check, validation, request key, then the one
// solution-cache call. Only a cache leader — or a request that bypasses
// the cache — takes a queue slot and a worker, which builds its
// instance; a hit or a joiner waits on its handler goroutine alone. ctx
// is the caller's (done = caller gone); ev is the request's record.
func (s *Server) answer(ctx context.Context, req *SolveRequest, robust bool, ev *telemetry.Event) (*SolveResponse, *httpError) {
	// The pending count must rise under the same lock that checks the
	// drain flag: Drain sets the flag, then waits for pending before it
	// closes the queue — so every request is either counted before the
	// flag flips or rejected, and none enqueues onto a closed queue.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectedDrain.Add(1)
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "server is draining",
			retryAfter: retryAfterDraining}
	}
	s.pending.Add(1)
	s.mu.Unlock()
	defer s.pending.Done()

	opts, err := s.prepare(req, robust)
	if err != nil {
		return nil, &httpError{status: http.StatusBadRequest, msg: err.Error()}
	}
	ev.Parallelism = opts.Parallelism

	var t *task // this request's own solve, when it ran one
	compute := func() (*solvecache.Solution, bool, error) {
		var herr *httpError
		if t, herr = s.admit(ctx, req, opts, robust, ev); herr != nil {
			return nil, false, herr
		}
		<-t.done
		if t.err != nil {
			return nil, false, t.err
		}
		// Only proven answers are cacheable: a degraded schedule is an
		// artifact of this request's budgets, not the instance's optimum.
		return t.sol, !t.sol.Degraded, nil
	}

	// Exactly one cache consultation — a single Do, never a Get probe
	// first — so each request contributes one outcome to the cache's
	// Stats and the server.cache.* hit rate stays per-request truthful.
	var (
		sol     *solvecache.Solution
		outcome = solvecache.Miss
	)
	step := time.Now()
	if s.cache == nil || req.NoCache {
		sol, _, err = compute()
		ev.Cache = "bypass"
	} else {
		tag := "solve"
		if robust {
			tag = "robust"
		}
		key := RequestKey(req) + "|" + opts.Fingerprint() + "|" + tag
		ev.FP = key[:12]
		sol, outcome, err = s.cache.Do(key, compute)
		switch outcome {
		case solvecache.Hit:
			s.cacheHits.Add(1)
		case solvecache.Shared:
			s.cacheShared.Add(1)
		default:
			s.cacheMisses.Add(1)
		}
		ev.Cache = outcome.String()
		s.refreshCacheGauges()
		if t != nil && err == nil && !sol.Degraded {
			// This request's own solve stored its answer (degraded and
			// failed solves are never cached): surface the growth on the
			// timeline.
			s.emitCacheEvent("store", 1)
		}
	}
	if t == nil {
		// No solve of its own: solve_ms is this request's time in the
		// cache step — about 0 on a hit, the wait for the leader's run
		// when shared.
		ev.SolveMS = float64(time.Since(step)) / float64(time.Millisecond)
	}
	if err != nil {
		return nil, err.(*httpError) // compute's only error type
	}
	ev.SolveID = sol.SolveID
	ev.Degraded = sol.Degraded
	ev.Reason = sol.AbortReason
	// The solution is shared across requests (cached) and only read here.
	resp := &SolveResponse{
		Cost:        sol.Cost,
		AvgCost:     sol.AvgCost,
		Groups:      sol.Groups,
		Machines:    sol.Machines,
		Method:      opts.Method.String(),
		Degraded:    sol.Degraded,
		AbortReason: sol.AbortReason,
		Fallbacks:   sol.Fallbacks,
		Cached:      outcome == solvecache.Hit,
		Shared:      outcome == solvecache.Shared,
		QueueMS:     ev.QueueMS,
		SolveMS:     sol.SolveMS,
		RequestID:   ev.ReqID,
		SolveID:     sol.SolveID,
	}
	if robust {
		resp.Method = "robust"
	}
	if t != nil {
		resp.TraceJSONL = t.traceJSONL
	}
	return resp, nil
}

// prepare validates the wire request — its size first, so an oversized
// request is refused before anything is parsed or built — and returns
// its solver options, refused here when cosched.Options.Validate (or,
// under the SolveRobust ladder, ValidateRobust) would refuse them after
// a queue slot, a worker and an instance build. robust says whether the
// ladder, which ignores Method, will run them.
func (s *Server) prepare(req *SolveRequest, robust bool) (cosched.Options, error) {
	var opts cosched.Options
	if n := max(req.Synthetic, req.SyntheticLarge, specProcesses(req.Spec)); n > maxProcesses {
		return opts, fmt.Errorf("workload asks for more than %d processes", maxProcesses)
	}
	if req.Spec == nil && req.Synthetic <= 0 && req.SyntheticLarge <= 0 {
		return opts, fmt.Errorf("request needs a spec, synthetic or synthetic_large workload")
	}
	if _, err := cosched.ParseMachineKind(req.Machine); err != nil {
		return opts, err
	}
	var err error
	if req.Method != "" {
		if opts.Method, err = cosched.ParseMethod(req.Method); err != nil {
			return opts, err
		}
	}
	if req.Accounting != "" {
		if opts.Accounting, err = cosched.ParseAccounting(req.Accounting); err != nil {
			return opts, err
		}
	}
	opts.HStrategy = req.HStrategy
	opts.KPerLevel = req.KPerLevel
	opts.HWeight = req.HWeight
	opts.BeamWidth = req.BeamWidth
	opts.IPConfig = req.IPConfig
	opts.MaxExpansions = req.MaxExpansions
	opts.MemoryBudget = req.MemoryBudgetBytes
	// cosched.Options treats 0 as "all cores"; the daemon's default is
	// explicit so an unconfigured server stays sequential per solve.
	opts.Parallelism = req.Parallelism
	if opts.Parallelism == 0 {
		opts.Parallelism = s.cfg.SolveParallelism
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	if robust {
		err = opts.ValidateRobust()
	} else {
		err = opts.Validate()
	}
	if err != nil {
		return opts, err
	}
	opts.Metrics = s.cfg.Metrics
	return opts, nil
}

// specProcesses counts the processes a spec asks for, each job as at
// least one, stopping once past maxProcesses (so the sum cannot
// overflow).
func specProcesses(sf *cosched.SpecFile) int {
	n := 0
	if sf == nil {
		return n
	}
	for _, j := range sf.Jobs {
		if n += min(max(j.Procs, 1), maxProcesses+1); n > maxProcesses {
			break
		}
	}
	return n
}

// admit enqueues the request's solve, or refuses it with 429 when the
// queue is full. The instance is built later, by the worker that pops
// the task, so the worker pool bounds how many builds run at once. ctx
// is the caller's (done = caller gone); ev is the request record the
// worker fills in.
func (s *Server) admit(ctx context.Context, req *SolveRequest, opts cosched.Options, robust bool, ev *telemetry.Event) (*task, *httpError) {
	t := &task{
		req:       req,
		opts:      opts,
		robust:    robust,
		clientCtx: ctx,
		ev:        ev,
		enqueued:  time.Now(),
		done:      make(chan struct{}),
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (deadline <= 0 || deadline > s.cfg.MaxDeadline) {
		deadline = s.cfg.MaxDeadline
	}
	if deadline > 0 {
		t.deadline = t.enqueued.Add(deadline)
	}
	select {
	case s.queue <- t:
		s.admitted.Add(1)
		return t, nil
	default:
		s.rejectedQueue.Add(1)
		return nil, &httpError{status: http.StatusTooManyRequests, msg: "admission queue is full",
			retryAfter: retryAfterQueueFull}
	}
}

// build materialises a validated request's workload: its spec, or else
// its synthetic_large or synthetic count on its machine and seed.
func build(req *SolveRequest) (*cosched.Instance, error) {
	machine, err := cosched.ParseMachineKind(req.Machine)
	switch {
	case err != nil:
		return nil, err
	case req.Spec != nil:
		return req.Spec.Build()
	case req.SyntheticLarge > 0:
		return cosched.SyntheticLarge(req.SyntheticLarge, machine, req.workloadSeed())
	default:
		return cosched.SyntheticSerial(req.Synthetic, machine, req.workloadSeed())
	}
}

// task is one admitted solve travelling from handler to worker. req is
// the handler's validated request, read-only to the worker; the handler
// waits on done before it touches req again.
type task struct {
	req       *SolveRequest
	opts      cosched.Options
	robust    bool
	clientCtx context.Context // the HTTP request's context: done = caller gone
	deadline  time.Time
	enqueued  time.Time

	// Written by the worker before closing done, read by the handler
	// after: the request record's queue and solve fields, and the
	// answer or the refusal.
	ev         *telemetry.Event
	sol        *solvecache.Solution
	err        *httpError
	traceJSONL string
	done       chan struct{}
}

// worker drains the admission queue until the queue closes (drain) or
// its quit channel does (an autoscaler shrink). Quit is only honoured
// between tasks, so a shrink never abandons a solve in flight, and the
// non-blocking check first makes retirement deterministic even when the
// queue stays ready.
func (s *Server) worker(quit chan struct{}) {
	defer s.workers.Done()
	for {
		select {
		case <-quit:
			return
		default:
		}
		select {
		case t, ok := <-s.queue:
			if !ok {
				return
			}
			s.process(t)
			close(t.done)
		case <-quit:
			return
		}
	}
}

// process runs one admitted task: the queued-deadline check, the
// client-gone check, the build (a workload that does not build is the
// request's 400), the solve. It writes the request record's queue and
// solve fields and the task's answer or refusal.
func (s *Server) process(t *task) {
	ev := t.ev
	ev.QueueMS = float64(time.Since(t.enqueued)) / float64(time.Millisecond)
	s.queueDelay.Observe(ev.QueueMS)
	if !t.deadline.IsZero() && !time.Now().Before(t.deadline) {
		s.rejectedDL.Add(1)
		t.err = &httpError{status: http.StatusGatewayTimeout, msg: "deadline expired while queued"}
		return
	}

	// A caller that already went away — a cancelled hedge duplicate, a
	// dropped connection — gets no solve at all: running it would burn a
	// worker on an answer nobody reads (and, for hedges, double-count
	// the logical request's side effects).
	if t.clientCtx != nil && t.clientCtx.Err() != nil {
		s.rejectedGone.Add(1)
		t.err = &httpError{status: statusClientGone, msg: "client went away while queued"}
		return
	}

	inst, err := build(t.req)
	if err != nil {
		t.err = &httpError{status: http.StatusBadRequest, msg: err.Error()}
		return
	}

	// The deadline was fixed at admission, so queue time counts against
	// the solve's budget.
	ctx := context.Background()
	if !t.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, t.deadline)
		defer cancel()
	}
	if t.clientCtx != nil {
		// Merge the caller's cancellation into the solve context: when a
		// fleet client cancels a losing hedge attempt (or disconnects),
		// the solver's next expansion check aborts instead of finishing
		// work whose answer is unread.
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(t.clientCtx, cancel)
		defer stop()
	}

	sched, err := s.solve(ctx, t, inst)
	if err != nil {
		if t.clientCtx != nil && t.clientCtx.Err() != nil {
			// The solve died because the caller went away mid-run (a
			// hedge loser's cancellation propagated in) — not a server
			// fault.
			s.rejectedGone.Add(1)
			t.err = &httpError{status: statusClientGone, msg: "client went away during solve"}
			return
		}
		t.err = &httpError{status: http.StatusInternalServerError, msg: err.Error()}
		return
	}
	t.sol = solutionFromSchedule(sched, ev.SolveMS)
}

// solve runs the task's solver call on its built instance, wiring trace
// capture and the flight recorder, and records the wall-clock spent
// solving as the request's solve_ms.
func (s *Server) solve(ctx context.Context, t *task, inst *cosched.Instance) (*cosched.Schedule, error) {
	opts := t.opts
	var traceBuf *bytes.Buffer
	if t.req.Trace {
		traceBuf = &bytes.Buffer{}
		opts.EventTraceWriter = traceBuf
	}
	if s.cfg.Recorder != nil {
		opts.EventSink = s.cfg.Recorder
	}
	s.solves.Add(1)
	start := time.Now()
	var sched *cosched.Schedule
	var err error
	if t.robust {
		sched, err = cosched.SolveRobust(ctx, inst, opts)
	} else {
		sched, err = cosched.SolveContext(ctx, inst, opts)
	}
	t.ev.SolveMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return nil, err
	}
	if traceBuf != nil {
		t.traceJSONL = traceBuf.String()
	}
	return sched, nil
}

// solutionFromSchedule flattens a solved schedule into its cacheable
// form: everything the response needs, nothing tied to live solver
// state, so the value serialises to the spill log and is still
// renderable after a restart.
func solutionFromSchedule(sched *cosched.Schedule, solveMS float64) *solvecache.Solution {
	sol := &solvecache.Solution{
		Cost:     sched.TotalDegradation,
		AvgCost:  sched.AvgDegradation(),
		Groups:   sched.Groups(),
		Machines: sched.Machines(),
		Degraded: sched.Stats.Degraded,
		SolveMS:  solveMS,
		SolveID:  sched.Stats.SolveID,
	}
	if sched.Stats.AbortReason != cosched.AbortNone {
		sol.AbortReason = sched.Stats.AbortReason.String()
	}
	for _, fb := range sched.Stats.Fallbacks {
		sol.Fallbacks = append(sol.Fallbacks, solvecache.SolutionFallback{
			Method:   fb.Method.String(),
			Degraded: fb.Degraded,
			Aborted:  fb.Aborted.String(),
			Err:      fb.Err,
		})
	}
	return sol
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
