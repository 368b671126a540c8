package astar

import (
	"context"
	"sync"
	"testing"
	"time"

	"cosched/internal/abort"
	"cosched/internal/degradation"
	"cosched/internal/telemetry"
)

// TestTimeLimitAborts checks the search's wall-clock budget, the context
// deadline: one that expires mid-search degrades the solve with reason
// deadline and a valid partition, and a generous one does not degrade.
// The trace sink holds the search at its first expansion until the
// deadline has passed, so the expiry is mid-search on any host.
func TestTimeLimitAborts(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var hold sync.Once
	held := false
	tr := NewEventTracer(telemetry.NewEmitter(telemetry.EventSinkFunc(func(ev telemetry.Event) error {
		if ev.Ev == "expand" {
			hold.Do(func() {
				<-ctx.Done()
				held = true
			})
		}
		return nil
	})))
	s, err := NewSolver(g, Options{H: HNone, Ctx: ctx, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if !held {
		t.Fatal("the deadline expired before the search reached its first expansion")
	}
	requireDegraded(t, g, res, err, abort.Deadline)
	if res.Stats.VisitedPaths == 0 {
		t.Error("no pop counted before the abort")
	}

	generous, cancelGenerous := context.WithTimeout(context.Background(), time.Minute)
	defer cancelGenerous()
	s2, err := NewSolver(g, Options{H: HPerProc, UseIncumbent: true, Ctx: generous})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Solve()
	if err != nil {
		t.Errorf("generous deadline failed: %v", err)
	} else if res2.Stats.Degraded || res2.Stats.Aborted != abort.None {
		t.Errorf("generous deadline flagged degraded: %+v", res2.Stats)
	}
}
