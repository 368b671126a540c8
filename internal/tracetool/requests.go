package tracetool

import (
	"fmt"
	"io"

	"cosched/internal/telemetry"
)

// WriteRequests renders a captured trace's request events as the same
// table /debug/requests serves live (telemetry.WriteRequestTable): one
// row per request with its phase breakdown, cache outcome, and the
// solve_id to drill into with `coschedtrace timeline -solve <id>`.
// Requests slower than slowMS (when > 0) are marked with a trailing `*`.
// A served request carries the solve_id of the run that answered it, so
// Split files it into that solve's trace; a rejected request ran no
// solve and lands in the ambient (id 0) trace — this walks both.
func WriteRequests(w io.Writer, traces []*Trace, slowMS float64) error {
	var events []telemetry.Event
	for _, tr := range traces {
		for _, ev := range tr.Events {
			if ev.Ev == "request" {
				events = append(events, ev)
			}
		}
	}
	if len(events) == 0 {
		_, err := io.WriteString(w, "no request events: the trace was not captured from a serving daemon (or no requests arrived)\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "=== requests: %d ===\n", len(events)); err != nil {
		return err
	}
	return telemetry.WriteRequestTable(w, events, slowMS)
}
