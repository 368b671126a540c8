// Package server implements the coschedd serving daemon: an HTTP/JSON
// API over the cosched solver with a bounded, autoscaling worker pool
// (grown on queue-delay pressure, shrunk after sustained idleness,
// fixed when WorkersMin == WorkersMax), an admission queue that
// propagates per-request deadlines into SolveContext, a
// fingerprint-keyed solved-schedule cache (internal/solvecache;
// byte-bounded, optionally spilled to disk and restart-warm), a
// fingerprint-keyed oracle pool that shares built instances' memoized
// degradation oracles across identical workloads, and graceful drain.
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
// body — admission hands it to the task, and the worker writes queue,
// solve and cache facts straight into it. At response write that one
// value becomes the access-log line, the flight-recorder event
// (joinable to the solver's solve_id timeline) and the /debug/requests
// row, and is counted into per-route RED metrics and SLO burn rates
// (see obs.go).
package server

import (
	"bytes"
	"context"
	"encoding/json"
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
// two workers, a 64-deep queue, a 128-entry solution cache, a bounded
// oracle memo, no default or maximum deadline, and a private metrics
// registry.
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
	// QueueDepth bounds the admission queue (<= 0 means 64); a full
	// queue rejects with 429 rather than buffering unboundedly.
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
	// previously-solved fingerprints as hits (see solvecache's spill
	// documentation for the format and crash semantics).
	CacheDir string
	// OracleCacheEntries bounds each built instance's memoized
	// degradation oracle (<= 0 means 1<<16 entries per query cache).
	OracleCacheEntries int
	// OraclePoolEntries bounds the fingerprint-keyed oracle pool, which
	// shares one built instance — and so one memoized oracle — across
	// requests with identical instance fingerprints instead of
	// rebuilding SDC/pairwise memo tables per request (< 0 disables the
	// pool, 0 means 64 instances).
	OraclePoolEntries int
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
	// 0.99); SLOFastWindow and SLOSlowWindow override the burn-rate
	// horizons (0 means 5m and 1h).
	SLOObjective  float64
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	// ReplicaID names this daemon within a fleet: it appears in
	// /healthz, in every access-log line and request trace event, so a
	// fleet client's telemetry can be joined to the replica that
	// answered. Empty means a boot-generated "r-<4 hex>" ID.
	ReplicaID string
	// RetryAfterQueueFull and RetryAfterDraining are the Retry-After
	// hints sent with 429 (admission queue full) and 503 (draining)
	// rejections (<= 0 mean 1s and 2s) — the server's own estimate of
	// when retrying is worth a client's time.
	RetryAfterQueueFull time.Duration
	RetryAfterDraining  time.Duration
}

// Server is the daemon's engine: handlers feed an admission queue that
// an autoscaled worker pool drains (fixed-size when WorkersMin ==
// WorkersMax). Construct with New, mount Handler, stop with Drain.
//
// The solution cache stores *solvecache.Solution values — the rendered
// answer plus its solve metadata, not the live *cosched.Schedule — so
// cached entries serialise to the spill log and survive a restart. Each
// request consults the cache through exactly one Do call (never a Get
// probe first), so the cache's Stats count one outcome per request; the
// oracle pool is a separate cache with its own server.oracle_pool.*
// counters and never touches the solution cache's Stats.
type Server struct {
	cfg        Config
	cache      *solvecache.Cache[*solvecache.Solution]
	oraclePool *solvecache.Cache[*cosched.Instance]
	queue      chan *task
	epoch      time.Time

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
	oraclePHits   *telemetry.Counter
	oraclePMisses *telemetry.Counter
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
	if cfg.OracleCacheEntries <= 0 {
		cfg.OracleCacheEntries = 1 << 16
	}
	if cfg.OraclePoolEntries == 0 {
		cfg.OraclePoolEntries = 64
	}
	if cfg.SLOLatency <= 0 {
		cfg.SLOLatency = 500 * time.Millisecond
	}
	if cfg.ReplicaID == "" {
		cfg.ReplicaID = newReplicaID()
	}
	if cfg.RetryAfterQueueFull <= 0 {
		cfg.RetryAfterQueueFull = time.Second
	}
	if cfg.RetryAfterDraining <= 0 {
		cfg.RetryAfterDraining = 2 * time.Second
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
		oraclePHits:   r.Counter("server.oracle_pool.hits"),
		oraclePMisses: r.Counter("server.oracle_pool.misses"),
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
		Name:       "server.slo.availability",
		Objective:  cfg.SLOObjective,
		FastWindow: cfg.SLOFastWindow,
		SlowWindow: cfg.SLOSlowWindow,
	})
	s.sloLatency = telemetry.NewSLO(r, telemetry.SLOConfig{
		Name:       "server.slo.latency",
		Objective:  cfg.SLOObjective,
		FastWindow: cfg.SLOFastWindow,
		SlowWindow: cfg.SLOSlowWindow,
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
			ccfg.Spill = &solvecache.SpillConfig[*solvecache.Solution]{
				Dir:    cfg.CacheDir,
				Encode: (*solvecache.Solution).Encode,
				Decode: solvecache.DecodeSolution,
			}
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
	if cfg.OraclePoolEntries > 0 {
		s.oraclePool = solvecache.New[*cosched.Instance](cfg.OraclePoolEntries, nil)
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

// refreshCacheGauges snapshots the solution cache's O(1) size counters
// into the server.cache.* gauges.
func (s *Server) refreshCacheGauges() {
	s.cacheBytes.Set(s.cache.Bytes())
	s.cacheEntries.Set(int64(s.cache.Len()))
	s.cacheRetries.Set(s.cache.Retries())
	s.cacheSpilled.Set(s.cache.Spilled())
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
		Bytes:   s.cache.Bytes(),
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
		setRetryAfter(w, s.cfg.RetryAfterDraining)
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	t, err := s.admit(r.Context(), &req, robust, ev)
	if err != nil {
		err.write(w)
		return
	}
	<-t.done
	if t.errMsg != "" {
		writeError(w, t.status, t.errMsg)
		return
	}
	encodeStart := time.Now()
	writeJSON(w, http.StatusOK, t.resp)
	ev.EncodeMS = float64(time.Since(encodeStart)) / float64(time.Millisecond)
}

// BatchRequest is the /v1/batch body: requests answered positionally.
type BatchRequest struct {
	// Requests lists the solves; each may independently set robust.
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
// item's response carries it). Each item's worker fills a record of its
// own, and the batch's one request record aggregates them — worst queue
// wait, summed solve time, "mixed" when cache outcomes differ.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, ev *telemetry.Event) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no requests")
		return
	}
	ev.N = len(req.Requests)
	items := make([]BatchItem, len(req.Requests))
	tasks := make([]*task, len(req.Requests))
	itemEvs := make([]telemetry.Event, len(req.Requests))
	// Admit everything first — the queue outlives the admission loop and
	// enqueueing never blocks, so a batch wider than the queue fails its
	// overflow items with 429 instead of deadlocking behind itself.
	for i := range req.Requests {
		itemEvs[i].ReqID = ev.ReqID
		t, aerr := s.admit(r.Context(), &req.Requests[i], req.Requests[i].Robust, &itemEvs[i])
		if aerr != nil {
			items[i] = BatchItem{Status: aerr.status, Error: aerr.msg}
			continue
		}
		tasks[i] = t
	}
	for i, t := range tasks {
		if t == nil {
			continue
		}
		<-t.done
		item := &itemEvs[i]
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
		if t.errMsg != "" {
			items[i] = BatchItem{Status: t.status, Error: t.errMsg}
		} else {
			items[i] = BatchItem{Status: http.StatusOK, Response: t.resp}
		}
	}
	encodeStart := time.Now()
	writeJSON(w, http.StatusOK, BatchResponse{Items: items})
	ev.EncodeMS = float64(time.Since(encodeStart)) / float64(time.Millisecond)
}

// admitError is an admission failure with its HTTP mapping; a non-zero
// retryAfter becomes the rejection's Retry-After header, telling
// well-behaved clients when a retry might succeed.
type admitError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

// write renders the rejection, header included.
func (e *admitError) write(w http.ResponseWriter) {
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

// admit validates the request, builds its instance and options, applies
// the deadline policy, and enqueues a task — or explains why not. ctx is
// the caller's (done = caller gone); ev is the request record the
// task's worker fills in, carrying the request ID across the queue hop.
func (s *Server) admit(ctx context.Context, req *SolveRequest, robust bool, ev *telemetry.Event) (*task, *admitError) {
	inst, opts, err := s.prepare(req)
	if err != nil {
		return nil, &admitError{status: http.StatusBadRequest, msg: err.Error()}
	}

	// One fingerprint serves two tiers: the solution-cache key and the
	// oracle pool. A fingerprint error (unknown oracle kind) skips both
	// — the request still solves, uncached and unpooled.
	var ifp string
	if (s.cache != nil && !req.NoCache) || s.oraclePool != nil {
		ifp, _ = inst.Fingerprint()
	}
	if s.oraclePool != nil && ifp != "" {
		// Identical fingerprints mean identical instances, and a built
		// instance is safe to share across concurrent solves (its
		// memoized oracle is concurrency-safe), so all requests for one
		// fingerprint ride the first request's instance — and its
		// warmed SDC/pairwise memo tables — instead of rebuilding them.
		// The pool is its own cache: its outcomes land in the
		// server.oracle_pool.* counters, never in the solution cache's
		// Stats, which stay one-outcome-per-request.
		pooled, out, err := s.oraclePool.Do(ifp, func() (*cosched.Instance, bool, error) {
			return inst, true, nil
		})
		if err == nil && pooled != nil {
			inst = pooled
			if out == solvecache.Miss {
				s.oraclePMisses.Add(1)
			} else {
				s.oraclePHits.Add(1)
			}
		}
	}

	t := &task{
		inst:      inst,
		opts:      opts,
		robust:    robust,
		trace:     req.Trace,
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
	if s.cache != nil && !req.NoCache && ifp != "" {
		tag := "solve"
		if robust {
			tag = "robust"
		}
		t.key = ifp + "|" + opts.Fingerprint() + "|" + tag
	}

	// The pending count must rise under the same lock that checks the
	// drain flag: Drain sets the flag, then waits for pending — so every
	// admitted task is either counted before the flag flips or rejected.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectedDrain.Add(1)
		return nil, &admitError{status: http.StatusServiceUnavailable, msg: "server is draining",
			retryAfter: s.cfg.RetryAfterDraining}
	}
	s.pending.Add(1)
	s.mu.Unlock()

	select {
	case s.queue <- t:
		s.admitted.Add(1)
		go func() { // release the drain gate once the task resolves
			<-t.done
			s.pending.Done()
		}()
		return t, nil
	default:
		s.pending.Done()
		s.rejectedQueue.Add(1)
		return nil, &admitError{status: http.StatusTooManyRequests, msg: "admission queue is full",
			retryAfter: s.cfg.RetryAfterQueueFull}
	}
}

// prepare turns the wire request into a ready instance and options.
func (s *Server) prepare(req *SolveRequest) (*cosched.Instance, cosched.Options, error) {
	var opts cosched.Options
	var err error
	if req.Method != "" {
		if opts.Method, err = cosched.ParseMethod(req.Method); err != nil {
			return nil, opts, err
		}
	}
	if req.Accounting != "" {
		if opts.Accounting, err = cosched.ParseAccounting(req.Accounting); err != nil {
			return nil, opts, err
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
	opts.Metrics = s.cfg.Metrics

	machine := cosched.QuadCore
	if req.Machine != "" {
		if machine, err = cosched.ParseMachineKind(req.Machine); err != nil {
			return nil, opts, err
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	var inst *cosched.Instance
	switch {
	case req.Spec != nil:
		inst, err = req.Spec.Build()
	case req.SyntheticLarge > 0:
		inst, err = cosched.SyntheticLarge(req.SyntheticLarge, machine, seed)
	case req.Synthetic > 0:
		inst, err = cosched.SyntheticSerial(req.Synthetic, machine, seed)
	default:
		err = fmt.Errorf("request needs a spec, synthetic or synthetic_large workload")
	}
	if err != nil {
		return nil, opts, err
	}
	inst.SetOracleCacheCapacity(s.cfg.OracleCacheEntries)
	return inst, opts, nil
}

// task is one admitted solve travelling from handler to worker.
type task struct {
	inst      *cosched.Instance
	opts      cosched.Options
	robust    bool
	trace     bool
	key       string          // solution-cache key; "" = don't cache
	clientCtx context.Context // the HTTP request's context: done = caller gone
	deadline  time.Time
	enqueued  time.Time

	// Written by the worker before closing done, read by the handler
	// after: the request record's queue, solve, cache and answer fields,
	// and the response or error.
	ev         *telemetry.Event
	resp       *SolveResponse
	traceJSONL string
	status     int
	errMsg     string
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

// process runs one admitted task: deadline check, cache lookup, solve.
// It writes the request record's queue, solve, cache and answer fields.
func (s *Server) process(t *task) {
	ev := t.ev
	ev.QueueMS = float64(time.Since(t.enqueued)) / float64(time.Millisecond)
	ev.Parallelism = t.opts.Parallelism
	if t.key != "" {
		ev.FP = t.key[:12] // keys open with the 64-hex instance fingerprint
	}
	s.queueDelay.Observe(ev.QueueMS)
	if !t.deadline.IsZero() && !time.Now().Before(t.deadline) {
		s.rejectedDL.Add(1)
		t.status = http.StatusGatewayTimeout
		t.errMsg = "deadline expired while queued"
		return
	}

	// A caller that already went away — a cancelled hedge duplicate, a
	// dropped connection — gets no solve at all: running it would burn a
	// worker on an answer nobody reads (and, for hedges, double-count
	// the logical request's side effects).
	if t.clientCtx != nil && t.clientCtx.Err() != nil {
		s.rejectedGone.Add(1)
		t.status = statusClientGone
		t.errMsg = "client went away while queued"
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

	compute := func() (*solvecache.Solution, bool, error) {
		sched, solveMS, err := s.solve(ctx, t)
		if err != nil {
			return nil, false, err
		}
		// Only proven answers are cacheable: a degraded schedule is an
		// artifact of this request's budgets, not the instance's optimum.
		return solutionFromSchedule(sched, solveMS), !sched.Stats.Degraded, nil
	}

	// Exactly one cache consultation — a single Do, never a Get probe
	// first — so each request contributes one outcome to the cache's
	// Stats and the server.cache.* hit rate stays per-request truthful.
	// The record's solve_ms is this request's own time in that step:
	// about 0 on a hit, the wait for the leader's run when shared.
	var (
		sol     *solvecache.Solution
		outcome = solvecache.Miss
		err     error
	)
	step := time.Now()
	if t.key != "" {
		sol, outcome, err = s.cache.Do(t.key, compute)
		ev.SolveMS = float64(time.Since(step)) / float64(time.Millisecond)
		switch outcome {
		case solvecache.Hit:
			s.cacheHits.Add(1)
			ev.Cache = "hit"
		case solvecache.Shared:
			s.cacheShared.Add(1)
			ev.Cache = "shared"
		default:
			s.cacheMisses.Add(1)
			ev.Cache = "miss"
		}
		s.refreshCacheGauges()
		if outcome == solvecache.Miss && err == nil && sol != nil && !sol.Degraded {
			// This miss stored its answer (degraded and failed solves
			// are never cached): surface the growth on the timeline.
			s.emitCacheEvent("store", 1)
		}
	} else {
		sol, _, err = compute()
		ev.SolveMS = float64(time.Since(step)) / float64(time.Millisecond)
		ev.Cache = "bypass"
	}
	if err != nil {
		if t.clientCtx != nil && t.clientCtx.Err() != nil {
			// The solve died because the caller went away mid-run (a
			// hedge loser's cancellation propagated in) — not a server
			// fault.
			s.rejectedGone.Add(1)
			t.status = statusClientGone
			t.errMsg = "client went away during solve"
			return
		}
		t.status = http.StatusInternalServerError
		t.errMsg = err.Error()
		return
	}
	ev.SolveID = sol.SolveID
	ev.Degraded = sol.Degraded
	ev.Reason = sol.AbortReason
	t.resp = buildResponse(sol, outcome, ev.QueueMS)
	if t.robust {
		t.resp.Method = "robust"
	} else {
		t.resp.Method = t.opts.Method.String()
	}
	t.resp.TraceJSONL = t.traceJSONL
	t.resp.RequestID = ev.ReqID
	t.resp.SolveID = sol.SolveID
}

// solve runs the task's solver call, wiring trace capture and the
// flight recorder, and reports the wall-clock spent solving.
func (s *Server) solve(ctx context.Context, t *task) (*cosched.Schedule, float64, error) {
	opts := t.opts
	var traceBuf *bytes.Buffer
	if t.trace {
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
		sched, err = cosched.SolveRobust(ctx, t.inst, opts)
	} else {
		sched, err = cosched.SolveContext(ctx, t.inst, opts)
	}
	solveMS := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return nil, solveMS, err
	}
	if traceBuf != nil {
		t.traceJSONL = traceBuf.String()
	}
	return sched, solveMS, nil
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

// buildResponse renders a solution for one request. The solution is
// shared across requests (cached) and only read here.
func buildResponse(sol *solvecache.Solution, outcome solvecache.Outcome, queueMS float64) *SolveResponse {
	resp := &SolveResponse{
		Cost:        sol.Cost,
		AvgCost:     sol.AvgCost,
		Groups:      sol.Groups,
		Machines:    sol.Machines,
		Degraded:    sol.Degraded,
		AbortReason: sol.AbortReason,
		Cached:      outcome == solvecache.Hit,
		Shared:      outcome == solvecache.Shared,
		QueueMS:     queueMS,
		SolveMS:     sol.SolveMS,
	}
	for _, fb := range sol.Fallbacks {
		resp.Fallbacks = append(resp.Fallbacks, FallbackInfo{
			Method:   fb.Method,
			Degraded: fb.Degraded,
			Aborted:  fb.Aborted,
			Err:      fb.Err,
		})
	}
	return resp
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
