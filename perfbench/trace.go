package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval of an operation. Spans of one operation
// share Op; Parent is the ID of the enclosing span (-1 for the
// operation's root). Times are microseconds since the tracer's epoch.
type span struct {
	Op     int64   `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	epoch time.Time
	spans []span
	// recording is the time spent recording the spans of measured
	// operations, opTime the summed duration of those operations and ops
	// their number: what tracing adds to a run, and what it adds it to.
	recording, opTime time.Duration
	ops               int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(op int64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Op:     op,
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  float64(start.Sub(t.epoch)) / float64(time.Microsecond),
		End:    float64(end.Sub(t.epoch)) / float64(time.Microsecond),
	})
	return id
}

// charge books the time since ts, spent recording the spans of one
// measured operation that itself lasted op, as tracing overhead.
func (t *tracer) charge(ts time.Time, op time.Duration) {
	t.recording += time.Since(ts)
	t.opTime += op
	t.ops++
}

// overheadPct is the time spent recording spans as a percentage of the
// traced operations' own duration: what a traced run pays on top of an
// untraced one.
func (t *tracer) overheadPct() sample {
	return sample{Name: "trace.overhead_pct", Value: 100 * float64(t.recording) / float64(t.opTime), Unit: "%", N: t.ops}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, indexed by span ID.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSummary is the per-span-name aggregate of a trace.
type layerSummary struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	SelfMSMean float64 `json:"self_ms_mean"`
	SelfMSSum  float64 `json:"self_ms_sum"`
	DurMSMean  float64 `json:"dur_ms_mean"`
}

// summarize folds the spans into per-name self-time totals, in order of
// first appearance.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerSummary
	for i, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, layerSummary{Name: s.Name})
		}
		out[k].Count++
		out[k].SelfMSSum += self[i] / 1000
		out[k].DurMSMean += s.dur() / 1000
	}
	for k := range out {
		out[k].SelfMSMean = out[k].SelfMSSum / float64(out[k].Count)
		out[k].DurMSMean /= float64(out[k].Count)
	}
	return out
}

// write stores the spans as JSON lines and the summary as one JSON
// document next to them.
func (t *tracer) write(spanPath, summaryPath string, summary []layerSummary) error {
	f, err := os.Create(spanPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(summaryPath, append(data, '\n'), 0o644)
}
