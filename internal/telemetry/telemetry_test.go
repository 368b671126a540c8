package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryHandlesAreStable(t *testing.T) {
	r := New()
	c := r.Counter("a.pops")
	if r.Counter("a.pops") != c {
		t.Fatal("Counter lookup not stable")
	}
	c.Add(3)
	c.Add(4)
	if got := r.Counter("a.pops").Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	g := r.Gauge("a.frontier")
	g.Set(41)
	g.Set(42)
	fg := r.FloatGauge("a.load")
	fg.Set(0.5)
	h := r.Histogram("a.delay", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	snap := r.Snapshot()
	if snap["a.pops"] != int64(7) || snap["a.frontier"] != int64(42) || snap["a.load"] != 0.5 {
		t.Fatalf("snapshot = %v", snap)
	}
	hs := snap["a.delay"].(map[string]any)
	if hs["count"] != int64(3) || math.Abs(hs["sum"].(float64)-55.5) > 1e-9 {
		t.Fatalf("histogram snapshot = %v", hs)
	}
	if names := r.Names(); len(names) != 4 || names[0] != "a.pops" {
		t.Fatalf("names = %v", names)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h", []float64{10})
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Sum(); got != 8000 {
		t.Fatalf("histogram sum = %g, want 8000", got)
	}
}

func TestEventRoundTrip(t *testing.T) {
	var sb strings.Builder
	ew := NewEventWriter(&sb)
	in := []Event{
		{Ev: "solve_start", N: 12, U: 4, Method: "OA*"},
		{Ev: "expand", Pop: 1, Depth: 0, Q: 4, G: 1.25, H: 0.5, Leader: 5},
		{Ev: "dismiss", Pop: 1, Q: 8, G: 2.5, Reason: "worse"},
		{Ev: "progress", Pop: 1000, Frontier: 64, PopsPerSec: 1234.5, ETASec: 3.25, ElapsedSec: 1.5},
		{Ev: "solution", Cost: 4.75, Groups: [][]int{{1, 2}, {3, 4}}, Pop: 1000},
	}
	for _, ev := range in {
		if err := ew.Emit(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadEvents(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(out), len(in))
	}
	for i := range in {
		a, _ := json.Marshal(in[i])
		b, _ := json.Marshal(out[i])
		if string(a) != string(b) {
			t.Errorf("event %d round-trip mismatch:\n in: %s\nout: %s", i, a, b)
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	prefix, err := ReadEvents(strings.NewReader("{\"ev\":\"expand\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
	te, ok := AsTraceError(err)
	if !ok || te.Line != 2 {
		t.Fatalf("want *TraceError{Line: 2}, got %#v (ok=%v)", te, ok)
	}
	if len(prefix) != 1 || prefix[0].Ev != "expand" {
		t.Fatalf("want 1-event parsed prefix, got %v", prefix)
	}
}

func TestReadEventsTruncatedTrailingLine(t *testing.T) {
	// A crashed producer's torn final write: valid lines followed by a
	// partial JSON object with no closing brace.
	trace := "{\"ev\":\"solve_start\",\"n\":8}\n{\"ev\":\"expand\",\"pop\":1}\n{\"ev\":\"solu"
	prefix, err := ReadEvents(strings.NewReader(trace))
	te, ok := AsTraceError(err)
	if !ok || te.Line != 3 {
		t.Fatalf("want *TraceError{Line: 3}, got %v", err)
	}
	if len(prefix) != 2 || prefix[0].Ev != "solve_start" || prefix[1].Ev != "expand" {
		t.Fatalf("parsed prefix = %v, want the 2 intact events", prefix)
	}
}

func TestReadEventsEmptyTrace(t *testing.T) {
	events, err := ReadEvents(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Fatalf("empty trace: events=%v err=%v, want none/nil", events, err)
	}
	events, err = ReadEvents(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Fatalf("blank-line trace: events=%v err=%v, want none/nil", events, err)
	}
}

func TestReadEventsKeepsUnknownEventTypes(t *testing.T) {
	// Append-only schema: future event types and fields must decode, not
	// fail — consumers filter on Ev.
	trace := "{\"ev\":\"from_the_future\",\"warp\":9}\n{\"ev\":\"expand\",\"pop\":2}\n"
	events, err := ReadEvents(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Ev != "from_the_future" || events[1].Pop != 2 {
		t.Fatalf("events = %v, want unknown type preserved", events)
	}
}

func TestMultiSinkFansOutAndCollapses(t *testing.T) {
	if MultiSink(nil, nil) != nil {
		t.Fatal("MultiSink of nils should be nil")
	}
	fr := NewFlightRecorder(4)
	if MultiSink(nil, fr) != EventSink(fr) {
		t.Fatal("MultiSink of one sink should return it unchanged")
	}
	var sb strings.Builder
	ew := NewEventWriter(&sb)
	both := MultiSink(ew, fr)
	if err := both.Emit(Event{Ev: "expand", Pop: 7}); err != nil {
		t.Fatal(err)
	}
	if err := FlushSink(both); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"pop\":7") {
		t.Fatalf("writer leg missed the event: %q", sb.String())
	}
	if evs := fr.Events(); len(evs) != 1 || evs[0].Pop != 7 {
		t.Fatalf("recorder leg missed the event: %v", evs)
	}
}

func TestNextSolveIDMonotone(t *testing.T) {
	a, b := NextSolveID(), NextSolveID()
	if a == 0 || b <= a {
		t.Fatalf("solve ids not increasing: %d, %d", a, b)
	}
}

// TestEmitterStampsEvents pins the one stamping point of solve-scoped
// events: each emitter draws its own solve ID, every event it passes on
// carries that ID and a t_ms on its epoch, and the zero Emitter drops
// events.
func TestEmitterStampsEvents(t *testing.T) {
	fr := NewFlightRecorder(8)
	a, b := NewEmitter(fr), NewEmitter(fr)
	if a.SolveID() == 0 || b.SolveID() == a.SolveID() || !a.On() {
		t.Fatalf("emitters share or lack a solve id: %d, %d", a.SolveID(), b.SolveID())
	}
	time.Sleep(time.Millisecond)
	a.Emit(Event{Ev: "expand", Pop: 1, SolveID: 99, TMS: -1})
	b.Emit(Event{Ev: "expand", Pop: 2})
	var off Emitter
	off.Emit(Event{Ev: "expand", Pop: 3})
	if off.On() || off.Flush() != nil {
		t.Fatal("zero emitter is not off")
	}
	evs := fr.Events()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2 (the zero emitter drops): %v", len(evs), evs)
	}
	if evs[0].SolveID != a.SolveID() || evs[1].SolveID != b.SolveID() {
		t.Fatalf("events not stamped with their emitter's solve id: %+v", evs)
	}
	if evs[0].TMS < 1 || evs[1].TMS <= 0 {
		t.Fatalf("events not stamped with t_ms since the epoch: %+v", evs)
	}
}

func TestFlightRecorderRetainsLastN(t *testing.T) {
	fr := NewFlightRecorder(4)
	if fr.Cap() != 4 || fr.Len() != 0 {
		t.Fatalf("fresh recorder: cap=%d len=%d", fr.Cap(), fr.Len())
	}
	for i := 1; i <= 10; i++ {
		if err := fr.Emit(Event{Ev: "expand", Pop: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if fr.Len() != 4 {
		t.Fatalf("len = %d, want 4", fr.Len())
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.Pop != want {
			t.Fatalf("event %d pop = %d, want %d (oldest-first window)", i, ev.Pop, want)
		}
	}

	var sb strings.Builder
	if err := fr.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadEvents(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 4 || decoded[0].Pop != 7 || decoded[3].Pop != 10 {
		t.Fatalf("dump round-trip = %v", decoded)
	}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	sp := r.Start("anything")
	sp.End() // must not panic
	sp.End() // double-End must not panic either
	if got := r.Results(); got != nil {
		t.Fatalf("nil recorder results = %v", got)
	}
}

func TestSpanRecorderRecordsPhases(t *testing.T) {
	reg := New()
	fr := NewFlightRecorder(16)
	em := NewEmitter(fr)
	r := NewSpanRecorder(reg, em)

	outer := r.Start("solve")
	inner := r.Start("search")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	inner.End() // idempotent
	outer.End()

	res := r.Results()
	if len(res) != 2 {
		t.Fatalf("results = %v, want 2 spans", res)
	}
	if res[0].Name != "search" || res[1].Name != "solve" {
		t.Fatalf("completion order = %v, want search then solve", res)
	}
	if res[0].Depth != 1 || res[1].Depth != 0 {
		t.Fatalf("nesting depths = %v", res)
	}
	if res[0].DurMS <= 0 || res[1].DurMS < res[0].DurMS {
		t.Fatalf("durations inconsistent: %v", res)
	}

	snap := reg.Snapshot()
	hs, ok := snap["span.search_ms"].(map[string]any)
	if !ok || hs["count"] != int64(1) {
		t.Fatalf("span.search_ms missing from registry: %v", snap)
	}
	if reg.Counter("span.solve_ns").Value() <= 0 {
		t.Fatal("span.solve_ns counter not advanced")
	}

	evs := fr.Events()
	var kinds []string
	for _, ev := range evs {
		kinds = append(kinds, ev.Ev+":"+ev.Span)
		if ev.SolveID != em.SolveID() {
			t.Fatalf("event %v missing solve_id", ev)
		}
	}
	want := "span_start:solve,span_start:search,span_end:search,span_end:solve"
	if strings.Join(kinds, ",") != want {
		t.Fatalf("event order = %v, want %s", kinds, want)
	}
	last := evs[len(evs)-1]
	if last.TMS <= 0 || last.DurMS <= 0 {
		t.Fatalf("span_end not stamped: %+v", last)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 10 observations uniform in (0,1], 10 in (1,2].
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("p50 = %g, want within (0,1]", q)
	}
	if q := h.Quantile(0.75); q <= 1 || q > 2 {
		t.Fatalf("p75 = %g, want within (1,2]", q)
	}
	h.Observe(100) // +Inf bucket
	if q := h.Quantile(1); q != 4 {
		t.Fatalf("p100 with +Inf sample = %g, want highest finite bound 4", q)
	}
	qs := h.QuantileSummary()
	if len(qs) != 3 || qs[0] > qs[1] || qs[1] > qs[2] {
		t.Fatalf("quantile summary not monotone: %v", qs)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("astar.pops").Add(12)
	r.Gauge("astar.frontier").Set(3)
	r.FloatGauge("astar.pops_per_sec").Set(1.5)
	h := r.Histogram("online.placement_delay", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE cosched_astar_pops counter\ncosched_astar_pops 12\n",
		"# TYPE cosched_astar_frontier gauge\ncosched_astar_frontier 3\n",
		"cosched_astar_pops_per_sec 1.5\n",
		"# TYPE cosched_online_placement_delay histogram\n",
		"cosched_online_placement_delay_bucket{le=\"0.5\"} 1\n",
		"cosched_online_placement_delay_bucket{le=\"1\"} 2\n",
		"cosched_online_placement_delay_bucket{le=\"+Inf\"} 3\n",
		"cosched_online_placement_delay_sum 10\n",
		"cosched_online_placement_delay_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := WritePrometheus(io.Discard, nil); err != nil {
		t.Fatalf("nil registry should be a no-op, got %v", err)
	}
}

func TestProgressReporterRateLimits(t *testing.T) {
	p := &ProgressReporter{W: io.Discard, Every: 100 * time.Millisecond}
	t0 := time.Now()
	if p.Due(t0) {
		t.Fatal("first call must not be due (it sets the baseline)")
	}
	if p.Due(t0.Add(50 * time.Millisecond)) {
		t.Fatal("due before the interval elapsed")
	}
	if !p.Due(t0.Add(150 * time.Millisecond)) {
		t.Fatal("not due after the interval elapsed")
	}
	if p.Due(t0.Add(160 * time.Millisecond)) {
		t.Fatal("due again immediately after a report")
	}
	if got := p.Elapsed(t0.Add(time.Second)); got != time.Second {
		t.Fatalf("elapsed = %v, want 1s", got)
	}
}

func TestServeDebugExposesVarsAndPprof(t *testing.T) {
	r := New()
	r.Counter("astar.pops").Add(99)
	addr, closeFn, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "\"cosched\"") || !strings.Contains(vars, "astar.pops") {
		t.Errorf("expvar output missing cosched metrics: %.200s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("pprof index unexpected: %.200s", idx)
	}
}

func TestServeDebugWithMetricsAndTrace(t *testing.T) {
	r := New()
	r.Counter("astar.pops").Add(5)
	r.Histogram("online.placement_delay", []float64{1, 10}).Observe(2)
	fr := NewFlightRecorder(8)
	fr.Emit(Event{Ev: "expand", Pop: 3, G: 1.5}) //nolint:errcheck

	addr, closeFn, err := ServeDebugWith("127.0.0.1:0", r, fr)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE cosched_astar_pops counter",
		"cosched_astar_pops 5",
		"# TYPE cosched_online_placement_delay histogram",
		"cosched_online_placement_delay_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	trace := get("/debug/trace")
	events, err := ReadEvents(strings.NewReader(trace))
	if err != nil {
		t.Fatalf("/debug/trace not valid JSONL: %v\n%s", err, trace)
	}
	if len(events) != 1 || events[0].Pop != 3 {
		t.Fatalf("/debug/trace events = %v", events)
	}
}
