package telemetry

import (
	"sync"
	"time"
)

// spanBoundsMS are the histogram bucket upper bounds (milliseconds) used
// for span-duration metrics: sub-millisecond phases (condensation on
// small instances) through multi-minute searches.
var spanBoundsMS = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 30000, 120000}

// SpanResult is one completed phase recorded by a SpanRecorder.
type SpanResult struct {
	// Name is the phase name ("oracle", "search", ...).
	Name string
	// StartMS is the span's start in milliseconds since the recorder
	// epoch, DurMS its duration in milliseconds.
	StartMS float64
	DurMS   float64
	// Depth is the nesting depth at Start (0 = top level), so consumers
	// can re-indent a phase tree.
	Depth int
}

// SpanRecorder times the named phases of a solve pipeline against its
// Emitter's epoch. Start opens a span, the returned Span's End closes
// it; spans nest (Depth tracks the open count). Each completed span is
//
//   - kept in order for Results (the cosched.Stats phase breakdown),
//   - observed into the registry as a "span.<name>_ms" histogram and a
//     "span.<name>_ns" counter (scrapeable totals), and
//   - emitted through the Emitter as span_start/span_end trace events.
//
// A nil *SpanRecorder is the disabled state: Start returns a nil *Span
// and both are safe to call, so instrumented code needs no guards. The
// recorder serialises Start/End under a mutex — phases are pipeline-level
// (a handful per solve), never per-node.
type SpanRecorder struct {
	em  Emitter
	reg *Registry

	mu    sync.Mutex
	depth int
	done  []SpanResult
}

// NewSpanRecorder returns a recorder timing against em's epoch and
// emitting through it. Registry may be nil (that surface is then
// skipped), and so may em's sink.
func NewSpanRecorder(reg *Registry, em Emitter) *SpanRecorder {
	return &SpanRecorder{em: em, reg: reg}
}

// Span is one open phase; see SpanRecorder.Start.
type Span struct {
	rec   *SpanRecorder
	name  string
	start time.Time
	depth int
	ended bool
}

// Start opens a named span and emits its span_start event. Safe on a nil
// recorder (returns nil).
func (r *SpanRecorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	start := time.Now()
	r.mu.Lock()
	depth := r.depth
	r.depth++
	r.mu.Unlock()
	r.em.Emit(Event{Ev: "span_start", Span: name})
	return &Span{rec: r, name: name, start: start, depth: depth}
}

// End closes the span, recording its duration into the recorder, the
// registry, and the sink. Safe on a nil span; a second End is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	r := s.rec
	end := time.Now()
	dur := end.Sub(s.start)
	res := SpanResult{
		Name:    s.name,
		StartMS: r.em.sinceMS(s.start),
		DurMS:   float64(dur) / float64(time.Millisecond),
		Depth:   s.depth,
	}
	r.mu.Lock()
	r.depth--
	r.done = append(r.done, res)
	r.mu.Unlock()
	if r.reg != nil {
		r.reg.Histogram("span."+s.name+"_ms", spanBoundsMS).Observe(res.DurMS)
		r.reg.Counter("span." + s.name + "_ns").Add(dur.Nanoseconds())
	}
	r.em.Emit(Event{Ev: "span_end", Span: s.name, DurMS: res.DurMS})
}

// Results returns the completed spans in completion order. Safe on a nil
// recorder (returns nil).
func (r *SpanRecorder) Results() []SpanResult {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanResult(nil), r.done...)
}
