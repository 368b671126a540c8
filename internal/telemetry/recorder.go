package telemetry

import "io"

// FlightRecorder keeps the last N trace events in a fixed ring so a
// misbehaving long-running solve can be diagnosed after the fact without
// having had a durable -trace enabled. It is a Ring of events: Emit is
// lock-free and allocation-free, and readers (Events, Dump, the
// /debug/trace endpoint and the coschedcli SIGQUIT handler) see a
// consistent subset of a ring being written, never a torn event.
//
// The recorder implements EventSink, so it can stand alone or fan in
// behind MultiSink alongside a durable EventWriter.
type FlightRecorder struct {
	ring *Ring[Event]
}

// NewFlightRecorder returns a recorder holding the last n events
// (n < 1 is raised to 1).
func NewFlightRecorder(n int) *FlightRecorder {
	return &FlightRecorder{ring: NewRing[Event](n)}
}

// Cap returns the ring capacity.
func (fr *FlightRecorder) Cap() int { return fr.ring.Cap() }

// Len returns how many events are currently retained (at most Cap).
func (fr *FlightRecorder) Len() int { return fr.ring.Len() }

// Emit implements EventSink: record the event, overwriting the oldest
// when full. It never fails and never allocates (the event struct is
// copied into a preallocated slot; slice fields alias the caller's
// backing arrays).
func (fr *FlightRecorder) Emit(ev Event) error {
	fr.ring.Put(ev)
	return nil
}

// Events returns the retained events, oldest first. Slots being
// overwritten during the snapshot are skipped, so the result is a
// consistent (possibly shorter) window.
func (fr *FlightRecorder) Events() []Event { return fr.ring.Snapshot() }

// Dump writes the retained events to w as JSONL — the same format as a
// durable trace, so coschedtrace can analyse a flight-recorder dump
// directly.
func (fr *FlightRecorder) Dump(w io.Writer) error {
	ew := NewEventWriter(w)
	for _, ev := range fr.Events() {
		if err := ew.Emit(ev); err != nil {
			return err
		}
	}
	return ew.Flush()
}
