package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"cosched/internal/telemetry"
)

// RequestIDHeader is the header the daemon reads an inbound request
// identity from and echoes the effective identity back on. A fleet
// client (or a curious curl) sets it to stitch one logical request
// across hops; absent or unusable values get a generated ID.
const RequestIDHeader = "X-Request-ID"

// reqIDPrefix makes generated IDs distinguishable across daemon
// restarts and replicas: four random bytes fixed at process start.
var reqIDPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degrade to a constant prefix; the per-process counter still
		// makes IDs unique within the run.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

// reqIDSeq numbers generated request IDs within the process.
var reqIDSeq atomic.Uint64

// newRequestID returns a fresh request identity:
// "<process-prefix>-<sequence>", e.g. "9f1c02ab-00002a".
func newRequestID() string {
	return fmt.Sprintf("%s-%06x", reqIDPrefix, reqIDSeq.Add(1))
}

// newReplicaID generates a boot-stable fleet identity for a daemon
// whose operator did not name it: "r-<4 hex>".
func newReplicaID() string {
	var b [2]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-0000"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// maxInboundIDLen bounds accepted X-Request-ID values so a hostile
// client cannot make every log line megabytes long.
const maxInboundIDLen = 128

// inboundRequestID returns the request's effective ID: the caller's
// X-Request-ID when it is non-empty, printable ASCII and within length
// bounds, a generated one otherwise.
func inboundRequestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" || len(id) > maxInboundIDLen {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return newRequestID()
		}
	}
	return id
}

// reqIDCtxKey keys the request ID in a context.
type reqIDCtxKey struct{}

// WithRequestID returns ctx carrying the request ID, the form handlers
// pass down through admission → queue → solve so deeper layers can
// stamp it into their own diagnostics.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDCtxKey{}, id)
}

// RequestIDFromContext returns the request ID carried by ctx ("" when
// the context is not part of an observed request).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(reqIDCtxKey{}).(string)
	return id
}

// reqInfo is one observed request's accumulated facts: the middleware
// fills identity/route/status/timing, the handler fills the solve-side
// fields it learns from its task.
type reqInfo struct {
	id          string
	route       string
	status      int
	queueMS     float64
	solveMS     float64
	encodeMS    float64
	cache       string // hit|shared|miss|bypass, "" when no solve ran
	degraded    bool
	abort       string
	parallelism int
	fp          string // fingerprint prefix, "" when not computed
	solveID     uint64
	items       int // batch requests: item count
}

// fromTask copies the solve-side facts a finished task learned into the
// request record.
func (info *reqInfo) fromTask(t *task) {
	info.queueMS = t.queueMS
	info.solveMS = t.solveMS
	info.cache = t.cacheOutcome
	info.degraded = t.degraded
	info.abort = t.abortReason
	info.parallelism = t.parallelism
	info.fp = t.fpPrefix
	info.solveID = t.solveID
}

// statusWriter captures the status code a handler wrote (200 when the
// handler only ever called Write).
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first explicit status.
func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 like net/http does.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// code returns the effective status (200 when nothing was written).
func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// routeMetrics is one endpoint's RED family: request counts split by
// status class, an error counter (5xx), and a latency histogram. All
// handles are resolved at server construction, so the request path is
// atomic adds only.
type routeMetrics struct {
	total    *telemetry.Counter
	byClass  [6]*telemetry.Counter // index status/100; 0 unused
	errors   *telemetry.Counter
	duration *telemetry.Histogram
}

// httpDurationBoundsMS buckets request round-trip times: sub-millisecond
// cache hits through multi-second deadline-bounded solves.
var httpDurationBoundsMS = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// newRouteMetrics registers an endpoint's RED series under
// server.http.{requests,errors,duration_ms}.<route>[.<class>].
func newRouteMetrics(r *telemetry.Registry, route string) *routeMetrics {
	rm := &routeMetrics{
		total:    r.Counter("server.http.requests." + route),
		errors:   r.Counter("server.http.errors." + route),
		duration: r.Histogram("server.http.duration_ms."+route, httpDurationBoundsMS),
	}
	for c := 1; c <= 5; c++ {
		rm.byClass[c] = r.Counter(fmt.Sprintf("server.http.requests.%s.%dxx", route, c))
	}
	return rm
}

// observe records one response on the endpoint's RED series.
func (rm *routeMetrics) observe(status int, totalMS float64) {
	rm.total.Add(1)
	if c := status / 100; c >= 1 && c <= 5 {
		rm.byClass[c].Add(1)
	}
	if status >= 500 {
		rm.errors.Add(1)
	}
	rm.duration.Observe(totalMS)
}

// observe wraps a handler with the request-scoped observability layer:
// request-ID assignment and echo, the in-flight gauge, RED metrics, and
// — for solve routes (full) — SLO accounting, the request ring, a
// "request" trace event, and the access log. The handler receives the
// reqInfo to fill with what it learns from its task.
func (s *Server) observe(route string, full bool, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	rm := s.routes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		info := &reqInfo{route: route, id: inboundRequestID(r)}
		w.Header().Set(RequestIDHeader, info.id)
		s.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(WithRequestID(r.Context(), info.id)), info)
		s.inflight.Add(-1)
		info.status = sw.code()
		totalMS := float64(time.Since(start)) / float64(time.Millisecond)
		if rm != nil {
			rm.observe(info.status, totalMS)
		}
		if !full {
			return
		}
		s.sloAvail.Record(info.status < http.StatusInternalServerError)
		if info.status == http.StatusOK {
			s.sloLatency.Record(totalMS <= s.sloLatencyMS)
		}
		if s.ring != nil {
			s.ring.Put(reqRecord{
				atMS:        float64(start.Sub(s.epoch)) / float64(time.Millisecond),
				id:          info.id,
				route:       route,
				status:      info.status,
				queueMS:     info.queueMS,
				solveMS:     info.solveMS,
				encodeMS:    info.encodeMS,
				totalMS:     totalMS,
				cache:       info.cache,
				degraded:    info.degraded,
				abort:       info.abort,
				parallelism: info.parallelism,
				fp:          info.fp,
				solveID:     info.solveID,
				items:       info.items,
			})
		}
		if s.cfg.Recorder != nil {
			s.cfg.Recorder.Emit(telemetry.Event{ //nolint:errcheck // ring emit cannot fail
				Ev:       "request",
				Replica:  s.cfg.ReplicaID,
				TMS:      float64(start.Sub(s.epoch)) / float64(time.Millisecond),
				SolveID:  info.solveID,
				ReqID:    info.id,
				Route:    route,
				Status:   info.status,
				QueueMS:  info.queueMS,
				SolveMS:  info.solveMS,
				EncodeMS: info.encodeMS,
				TotalMS:  totalMS,
				Cache:    info.cache,
				Degraded: info.degraded,
				Reason:   info.abort,
			})
		}
		s.logAccess(info, totalMS)
	}
}

// logAccess emits the request's structured access-log line: one JSON
// object per request with the full phase breakdown. With AccessLogSlow
// set, fast successful requests are skipped — only requests at or above
// the threshold, or with status >= 400, are logged.
func (s *Server) logAccess(info *reqInfo, totalMS float64) {
	log := s.cfg.AccessLog
	if log == nil {
		return
	}
	if slow := s.cfg.AccessLogSlow; slow > 0 &&
		totalMS < float64(slow)/float64(time.Millisecond) &&
		info.status < http.StatusBadRequest {
		return
	}
	level := slog.LevelInfo
	if info.status >= http.StatusInternalServerError {
		level = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("req_id", info.id),
		slog.String("replica", s.cfg.ReplicaID),
		slog.String("route", info.route),
		slog.Int("status", info.status),
		slog.Float64("queue_ms", info.queueMS),
		slog.Float64("solve_ms", info.solveMS),
		slog.Float64("encode_ms", info.encodeMS),
		slog.Float64("total_ms", totalMS),
		slog.String("cache", info.cache),
		slog.Bool("degraded", info.degraded),
		slog.String("abort", info.abort),
		slog.Int("parallelism", info.parallelism),
		slog.String("fp", info.fp),
		slog.Uint64("solve_id", info.solveID),
	}
	if info.items > 0 {
		attrs = append(attrs, slog.Int("items", info.items))
	}
	log.LogAttrs(context.Background(), level, "request", attrs...)
}

// reqRecord is one completed request as retained by the /debug/requests
// ring: identity, route, outcome, and the phase breakdown.
type reqRecord struct {
	atMS        float64 // request start, ms since server epoch
	id          string
	route       string
	cache       string
	abort       string
	fp          string
	status      int
	parallelism int
	items       int
	queueMS     float64
	solveMS     float64
	encodeMS    float64
	totalMS     float64
	solveID     uint64
	degraded    bool
}

// handleRequests serves the recent-requests ring as a human-readable
// table (the /debug/requests endpoint): one row per retained request,
// ordered by start time, with the full phase breakdown.
func (s *Server) handleRequests(w http.ResponseWriter, _ *http.Request) {
	recs := s.ring.Snapshot()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].atMS < recs[j].atMS })
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "=== recent requests: %d retained (ring %d) ===\n", len(recs), s.ring.Cap())
	if len(recs) == 0 {
		return
	}
	fmt.Fprintf(w, "%10s  %-24s  %-15s  %3s  %9s  %9s  %9s  %9s  %-6s  %-3s  %4s  %-12s  %8s  %s\n",
		"t_ms", "req_id", "route", "st", "queue_ms", "solve_ms", "enc_ms", "total_ms",
		"cache", "deg", "par", "fp", "solve_id", "abort")
	for _, rec := range recs {
		deg := ""
		if rec.degraded {
			deg = "yes"
		}
		fmt.Fprintf(w, "%10.1f  %-24s  %-15s  %3d  %9.2f  %9.2f  %9.2f  %9.2f  %-6s  %-3s  %4d  %-12s  %8d  %s\n",
			rec.atMS, rec.id, rec.route, rec.status,
			rec.queueMS, rec.solveMS, rec.encodeMS, rec.totalMS,
			rec.cache, deg, rec.parallelism, rec.fp, rec.solveID, rec.abort)
	}
}
