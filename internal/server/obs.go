package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
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

// requestRingSize is how many completed requests /debug/requests
// retains; emitting into the ring is allocation-free, so it is always on.
const requestRingSize = 256

// observe wraps a handler with the request-scoped observability layer:
// request-ID assignment and echo, the in-flight gauge, RED metrics, and
// — for solve routes (full) — SLO accounting and the request record.
// The record is one "request" event: observe allocates it with the
// request's identity, the handler and its worker write their phases and
// outcome into it, and at response write it is rendered three ways —
// the /debug/requests ring, the flight recorder and the access log.
func (s *Server) observe(route string, full bool, h func(http.ResponseWriter, *http.Request, *telemetry.Event)) http.HandlerFunc {
	rm := s.routes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ev := &telemetry.Event{
			Ev:      "request",
			TMS:     float64(start.Sub(s.epoch)) / float64(time.Millisecond),
			ReqID:   inboundRequestID(r),
			Route:   route,
			Replica: s.cfg.ReplicaID,
		}
		w.Header().Set(RequestIDHeader, ev.ReqID)
		s.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r, ev)
		s.inflight.Add(-1)
		ev.Status = sw.code()
		ev.TotalMS = float64(time.Since(start)) / float64(time.Millisecond)
		if rm != nil {
			rm.observe(ev.Status, ev.TotalMS)
		}
		if !full {
			return
		}
		s.sloAvail.Record(ev.Status < http.StatusInternalServerError)
		if ev.Status == http.StatusOK {
			s.sloLatency.Record(ev.TotalMS <= s.sloLatencyMS)
		}
		s.requests.Emit(*ev) //nolint:errcheck // ring emit cannot fail
		if s.cfg.Recorder != nil {
			s.cfg.Recorder.Emit(*ev) //nolint:errcheck // ring emit cannot fail
		}
		s.logAccess(ev)
	}
}

// logAccess emits the request's structured access-log line: one JSON
// object per request with the full phase breakdown.
func (s *Server) logAccess(ev *telemetry.Event) {
	log := s.cfg.AccessLog
	if log == nil {
		return
	}
	level := slog.LevelInfo
	if ev.Status >= http.StatusInternalServerError {
		level = slog.LevelWarn
	}
	attrs := []slog.Attr{
		slog.String("req_id", ev.ReqID),
		slog.String("replica", ev.Replica),
		slog.String("route", ev.Route),
		slog.Int("status", ev.Status),
		slog.Float64("queue_ms", ev.QueueMS),
		slog.Float64("solve_ms", ev.SolveMS),
		slog.Float64("encode_ms", ev.EncodeMS),
		slog.Float64("total_ms", ev.TotalMS),
		slog.String("cache", ev.Cache),
		slog.Bool("degraded", ev.Degraded),
		slog.String("abort", ev.Reason),
		slog.Int("parallelism", ev.Parallelism),
		slog.String("fp", ev.FP),
		slog.Uint64("solve_id", ev.SolveID),
	}
	if ev.N > 0 {
		attrs = append(attrs, slog.Int("items", ev.N))
	}
	log.LogAttrs(context.Background(), level, "request", attrs...)
}

// handleRequests serves the request ring as a human-readable table (the
// /debug/requests endpoint): one row per retained request, ordered by
// start time, with the full phase breakdown.
func (s *Server) handleRequests(w http.ResponseWriter, _ *http.Request) {
	evs := s.requests.Events()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "=== recent requests: %d retained (ring %d) ===\n", len(evs), s.requests.Cap())
	if len(evs) == 0 {
		return
	}
	telemetry.WriteRequestTable(w, evs, 0) //nolint:errcheck // client gone = nothing to do
}
