package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Event is one line of the structured JSONL solver trace. Ev identifies
// the event type; the other fields are populated per type (zero-valued
// fields are omitted from the encoding):
//
//	solve_start  n, u, method, h, sample, dismiss_sample, parallelism
//	             — one per solve, first search event; parallelism is the
//	             expansion-worker count, present only when > 1 (parallel
//	             workers interleave expand events, so order-sensitive
//	             consumers must relax per-stream invariants)
//	expand       pop, depth, q, g, h_est, leader
//	dismiss      pop, q, g, reason     — reason: worse|stale|pruned|beam_trim
//	progress     pop, frontier, pops_per_sec, eta_sec, elapsed_sec
//	span_start   span                  — a solve-pipeline phase opened
//	span_end     span, dur_ms          — the phase closed
//	stats        visited, expanded, generated, dismissed_*, pruned,
//	             beam_trimmed, in_frontier, condensed (graph searches)
//	             or nodes, lp_iters (IP) — final accounting, before the
//	             solution event
//	incumbent    cost, pop             — IP bound improvement
//	abort        pop, reason           — the solve stopped early; reason:
//	             deadline|cancel|expansions|memory. At most one per solve,
//	             before the stats/solution pair; the solution event then
//	             repeats the reason.
//	arrival      job, t                — online simulation: job queued
//	place        job, t, machines, delay — online: job placed
//	place_fail   job, t, reason, delay — online: transient placement
//	             failure injected by a fault plan; the job retries after
//	             delay simulated seconds
//	evict        job, t, machines      — online: a machine crash evicted
//	             the job (remaining work preserved, job requeued)
//	machine_down machines, t           — online: machine crashed
//	machine_up   machines, t           — online: machine restored
//	job_done     job, t                — online: job finished
//	scale        workers, reason, t_ms — serving layer: the coschedd
//	             autoscaler resized its worker pool to workers; reason
//	             explains the trigger ("queue_delay_p90=..." on grow,
//	             "idle=..." on shrink). Scale events carry no solve_id —
//	             they describe the pool, not a solve — and t_ms counts
//	             from server start
//	cache        reason, n, bytes, t_ms — serving layer: the coschedd
//	             solution cache changed shape; reason is the operation
//	             (replay: n log records pre-warmed the LRU at boot;
//	             store: a solve's answer became resident; evict: a bound
//	             pushed entries out, n of them). bytes is the cache's
//	             resident byte charge after the operation. Cache events
//	             carry no solve_id — they describe the tier, not a solve
//	             — and t_ms counts from server start
//	request      req_id, route, status, queue_ms, solve_ms, encode_ms,
//	             total_ms, cache, degraded, reason, parallelism, fp, n,
//	             replica — serving layer: one HTTP request's record,
//	             emitted at response write; coschedd's access log and
//	             /debug/requests render the same value. solve_ms is
//	             this request's own time in the cache-or-solve step
//	             (about 0 on a hit). solve_id is the solve that answered
//	             it (the original run's for cache hits), which is the
//	             join key between the HTTP timeline and the solver
//	             timeline; requests that ran no solver (rejections, bad
//	             requests) carry solve_id 0. cache is
//	             hit|shared|miss|bypass|mixed ("" when no worker ran);
//	             reason repeats the abort reason of a degraded answer;
//	             fp is the instance fingerprint's 12-hex prefix; n counts
//	             a batch's items. t_ms is the request's start, counted
//	             from server start
//	solution     cost, groups, pop, reason — one per solve, last line;
//	             reason is non-empty on degraded solves and matches the
//	             abort event
//
// pop is the 1-based expansion index at which the event happened (for
// dismiss events, the expansion that generated the child), depth the path
// depth in machines, q the number of scheduled processes, g/h the Eq. 13
// distance and heuristic estimate of the sub-path in degradation units.
//
// Every event may additionally carry t_ms (monotonic milliseconds since
// the solve epoch) and solve_id (a process-unique solve tag from
// NextSolveID, separating interleaved or concatenated multi-solve
// traces). Online-simulation events use t — the simulated clock — instead
// of t_ms, and 1-based job numbers. The schema is append-only: decoders
// must ignore unknown fields.
type Event struct {
	Ev string `json:"ev"`

	// Timing and identity (any event; both optional, absent in traces
	// recorded before the span/flight-recorder era).
	TMS     float64 `json:"t_ms,omitempty"`
	SolveID uint64  `json:"solve_id,omitempty"`

	// Solve identification (solve_start). HName names the h strategy;
	// Sample/DismissSample record the tracer's expand/dismiss sampling
	// intervals (0 or 1 = every event emitted), which tells trace
	// consumers whether event counts reconcile with the stats event.
	N             int    `json:"n,omitempty"`
	U             int    `json:"u,omitempty"`
	Method        string `json:"method,omitempty"`
	HName         string `json:"h,omitempty"`
	Sample        int64  `json:"sample,omitempty"`
	DismissSample int64  `json:"dismiss_sample,omitempty"`
	Parallelism   int    `json:"parallelism,omitempty"`

	// Search-span fields (expand, dismiss, progress, solution).
	Pop    int64   `json:"pop,omitempty"`
	Depth  int     `json:"depth,omitempty"`
	Q      int     `json:"q,omitempty"`
	G      float64 `json:"g,omitempty"`
	H      float64 `json:"h_est,omitempty"`
	Leader int     `json:"leader,omitempty"`
	Reason string  `json:"reason,omitempty"`

	// Progress fields.
	Frontier   int     `json:"frontier,omitempty"`
	PopsPerSec float64 `json:"pops_per_sec,omitempty"`
	ETASec     float64 `json:"eta_sec,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`

	// Phase-span fields (span_start, span_end).
	Span  string  `json:"span,omitempty"`
	DurMS float64 `json:"dur_ms,omitempty"`

	// Final-accounting fields (stats). Graph searches fill the admission
	// block — Generated == Expanded + DismissedStale + BeamTrimmed +
	// InFrontier — and IP solves the Nodes/LPIters pair.
	Visited        int64 `json:"visited,omitempty"`
	Expanded       int64 `json:"expanded,omitempty"`
	Generated      int64 `json:"generated,omitempty"`
	DismissedStale int64 `json:"dismissed_stale,omitempty"`
	DismissedWorse int64 `json:"dismissed_worse,omitempty"`
	Pruned         int64 `json:"pruned,omitempty"`
	BeamTrimmed    int64 `json:"beam_trimmed,omitempty"`
	InFrontier     int64 `json:"in_frontier,omitempty"`
	Condensed      int64 `json:"condensed,omitempty"`
	Nodes          int64 `json:"nodes,omitempty"`
	LPIters        int64 `json:"lp_iters,omitempty"`

	// Online-simulation fields (arrival, place, job_done). Job is
	// 1-based (JobID + 1, so job 0 survives omitempty); T is the
	// simulated clock; Delay the placement delay in simulated time.
	Job      int     `json:"job,omitempty"`
	T        float64 `json:"t,omitempty"`
	Machines []int   `json:"machines,omitempty"`
	Delay    float64 `json:"delay,omitempty"`

	// Solution fields.
	Cost   float64 `json:"cost,omitempty"`
	Groups [][]int `json:"groups,omitempty"`

	// Serving-layer fields (scale): the worker-pool size after an
	// autoscale event.
	Workers int `json:"workers,omitempty"`

	// Serving-layer fields (cache): the solution cache's resident byte
	// charge after the operation named by Reason (replay|store|evict);
	// N counts the records the operation touched.
	Bytes int64 `json:"bytes,omitempty"`

	// Request-lifecycle fields (request): the coschedd serving layer's
	// per-request record. ReqID is the request's identity (generated at
	// admission or accepted from an X-Request-ID header); Route the
	// endpoint; Status the HTTP status written; QueueMS/SolveMS/EncodeMS/
	// TotalMS the phase breakdown in wall-clock milliseconds; Cache the
	// solution-cache outcome (hit|shared|miss|bypass|mixed); Degraded
	// whether the answer was a budget-breached incumbent (Reason then
	// names the broken budget); FP the instance fingerprint's prefix.
	// SolveID on a request event is the answering solve, joining the
	// HTTP lifecycle to the solver timeline; Parallelism the solve's
	// expansion-worker count; N a batch's item count.
	ReqID    string  `json:"req_id,omitempty"`
	Route    string  `json:"route,omitempty"`
	Status   int     `json:"status,omitempty"`
	QueueMS  float64 `json:"queue_ms,omitempty"`
	SolveMS  float64 `json:"solve_ms,omitempty"`
	EncodeMS float64 `json:"encode_ms,omitempty"`
	TotalMS  float64 `json:"total_ms,omitempty"`
	Cache    string  `json:"cache,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	FP       string  `json:"fp,omitempty"`

	// Fleet-client fields (client_attempt, client_request,
	// client_breaker) — and, on a server "request" event, Replica is the
	// answering daemon's replica_id. Attempt numbers the physical HTTP
	// calls of one logical request (1-based, shared req_id); Hedged
	// marks a speculative duplicate fired after the hedge delay; Replica
	// names the backend the attempt went to (the winning backend, on
	// client_request); Breaker is the per-backend circuit state after a
	// client_breaker transition (closed|open|half-open).
	Attempt int    `json:"attempt,omitempty"`
	Hedged  bool   `json:"hedged,omitempty"`
	Replica string `json:"replica,omitempty"`
	Breaker string `json:"breaker,omitempty"`
}

// WriteRequestTable renders request events as the table both coschedd's
// /debug/requests and `coschedtrace requests` print: a header, then one
// row per event in start (t_ms) order — evs is sorted in place — with
// the phase breakdown, cache outcome, parallelism, fingerprint prefix
// and the solve_id to drill into. Rows whose total_ms reaches slowMS
// (when > 0) end in " *".
func WriteRequestTable(w io.Writer, evs []Event, slowMS float64) error {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TMS < evs[j].TMS })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s  %-24s  %-15s  %3s  %9s  %9s  %9s  %9s  %-6s  %-3s  %4s  %-12s  %8s  %s\n",
		"t_ms", "req_id", "route", "st", "queue_ms", "solve_ms", "enc_ms", "total_ms",
		"cache", "deg", "par", "fp", "solve_id", "abort")
	for _, ev := range evs {
		deg := ""
		if ev.Degraded {
			deg = "yes"
		}
		mark := ""
		if slowMS > 0 && ev.TotalMS >= slowMS {
			mark = " *"
		}
		fmt.Fprintf(&sb, "%10.1f  %-24s  %-15s  %3d  %9.2f  %9.2f  %9.2f  %9.2f  %-6s  %-3s  %4d  %-12s  %8d  %s%s\n",
			ev.TMS, ev.ReqID, ev.Route, ev.Status,
			ev.QueueMS, ev.SolveMS, ev.EncodeMS, ev.TotalMS,
			ev.Cache, deg, ev.Parallelism, ev.FP, ev.SolveID, ev.Reason, mark)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// EventSink receives trace events one at a time. EventWriter (durable
// JSONL) and FlightRecorder (in-memory ring) are the two implementations
// this package provides; MultiSink fans an event out to several.
// Implementations must be safe for concurrent Emit calls.
type EventSink interface {
	Emit(Event) error
}

// EventSinkFunc adapts a function to the EventSink interface, the
// http.HandlerFunc pattern — handy for tests and inline fan-outs.
type EventSinkFunc func(Event) error

// Emit calls f.
func (f EventSinkFunc) Emit(ev Event) error { return f(ev) }

// flusher is the optional buffered-sink extension: EventWriter implements
// it, FlightRecorder does not need to.
type flusher interface {
	Flush() error
}

// FlushSink flushes s when it buffers (EventWriter, a MultiSink holding
// one); a nil or unbuffered sink is a no-op.
func FlushSink(s EventSink) error {
	if f, ok := s.(flusher); ok && f != nil {
		return f.Flush()
	}
	return nil
}

// multiSink fans events out to several sinks.
type multiSink []EventSink

// Emit implements EventSink: the first error wins but every sink still
// receives the event.
func (m multiSink) Emit(ev Event) error {
	var first error
	for _, s := range m {
		if err := s.Emit(ev); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush implements the buffered-sink extension.
func (m multiSink) Flush() error {
	var first error
	for _, s := range m {
		if err := FlushSink(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MultiSink combines sinks into one; nils are dropped. It returns nil
// when nothing remains, the sink itself when exactly one does.
func MultiSink(sinks ...EventSink) EventSink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// solveIDCounter backs NextSolveID.
var solveIDCounter atomic.Uint64

// NextSolveID returns a process-unique solve tag (1, 2, 3, ...) for the
// Event.SolveID field, letting consumers separate the solves of a
// multi-solve trace without relying on solve_start ordering.
func NextSolveID() uint64 { return solveIDCounter.Add(1) }

// EventWriter encodes Events as JSON Lines. It buffers internally; call
// Flush (or Close the underlying writer after Flush) when the trace must
// be durable — the astar EventTracer flushes on every solution event.
// Emit is safe for concurrent use.
type EventWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewEventWriter returns an EventWriter emitting to w.
func NewEventWriter(w io.Writer) *EventWriter {
	bw := bufio.NewWriter(w)
	return &EventWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event as a single JSON line. The first encoding error
// is sticky and returned by this and every later call.
func (ew *EventWriter) Emit(ev Event) error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if ew.err != nil {
		return ew.err
	}
	ew.err = ew.enc.Encode(&ev)
	return ew.err
}

// Flush pushes buffered lines to the underlying writer.
func (ew *EventWriter) Flush() error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if ew.err != nil {
		return ew.err
	}
	ew.err = ew.bw.Flush()
	return ew.err
}

// TraceError reports a trace whose decoding stopped mid-stream: a
// truncated or corrupt line (a crashed producer's torn last write, a
// partial download). ReadEvents returns it alongside every event parsed
// before the bad line, so consumers can analyse the intact prefix.
type TraceError struct {
	// Line is the 1-based line number of the first undecodable line.
	Line int
	// Err is the underlying JSON or scanner error.
	Err error
}

// Error implements the error interface.
func (e *TraceError) Error() string {
	return fmt.Sprintf("telemetry: trace line %d: %v", e.Line, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TraceError) Unwrap() error { return e.Err }

// ReadEvents decodes a JSONL event stream produced by EventWriter,
// returning the events in order. Blank lines are skipped, and events of
// unknown type are kept (the schema is append-only; consumers filter on
// Ev). An empty stream yields no events and no error. A malformed or
// truncated line stops the decode: ReadEvents then returns every event
// before it together with a *TraceError naming the line — callers that
// can work on a prefix (a flight-recorder dump, a trace cut off by a
// crash) check for that type instead of discarding the whole trace.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return out, &TraceError{Line: line, Err: err}
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return out, &TraceError{Line: line + 1, Err: err}
	}
	return out, nil
}

// AsTraceError unwraps err to a *TraceError, reporting whether the
// decode failed mid-stream (so the accompanying events are a usable
// prefix) as opposed to an I/O failure on the reader itself.
func AsTraceError(err error) (*TraceError, bool) {
	var te *TraceError
	ok := errors.As(err, &te)
	return te, ok
}
