package cosched

import (
	"context"
	"sync"
	"testing"
	"time"

	"cosched/internal/telemetry"
)

// TestDeadlineAbortsEveryEngine is the wall-clock contract of every
// solver that searches: the context deadline is the only clock, and one
// that expires mid-search ends the solve with AbortDeadline, a valid
// partition and, for the graph engines, an intact admission identity,
// while a generous deadline does not degrade. To make "mid-search" hold
// on any host, the event sink holds the solve at its first expansion
// (the IP at its first incumbent) until the deadline has passed.
func TestDeadlineAbortsEveryEngine(t *testing.T) {
	// Every engine, the IP included (9 branch-and-bound nodes, the first
	// incumbent at node 1), needs more than one step on this instance.
	inst, err := SyntheticSerial(12, QuadCore, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
		hold string // the event the sink holds until the deadline
		par  int    // Stats.Parallelism the engine must report (graph engines)
	}{
		{"OA*", Options{Method: MethodOAStar, Parallelism: 1}, "expand", 1},
		{"HA*", Options{Method: MethodHAStar, Parallelism: 1}, "expand", 1},
		{"beam", Options{Method: MethodHAStar, BeamWidth: 4, Parallelism: 1}, "expand", 1},
		{"beam/4 generators", Options{Method: MethodHAStar, BeamWidth: 4, Parallelism: 4}, "expand", 4},
		{"parallel/4", Options{Method: MethodOAStar, HStrategy: 3, Parallelism: 4}, "expand", 4},
		{"IP", Options{Method: MethodIP}, "incumbent", 0},
		{"O-SVP", Options{Method: MethodOSVP}, "expand", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			var hold sync.Once
			held := false
			opts := tc.opts
			opts.EventSink = telemetry.EventSinkFunc(func(ev telemetry.Event) error {
				if ev.Ev == tc.hold {
					hold.Do(func() {
						<-ctx.Done()
						held = true
					})
				}
				return nil
			})
			sched, err := SolveContext(ctx, inst, opts)
			if err != nil {
				t.Fatalf("expired deadline errored instead of degrading: %v", err)
			}
			if !held {
				t.Fatal("the deadline expired before the search reached its first expansion")
			}
			st := sched.Stats
			if !st.Degraded || st.AbortReason != AbortDeadline {
				t.Fatalf("degraded=%v reason=%v; want a degraded AbortDeadline", st.Degraded, st.AbortReason)
			}
			validGroups(t, sched, inst.NumProcesses(), 4)
			if tc.par > 0 {
				if st.Parallelism != tc.par {
					t.Errorf("ran %d workers; want %d", st.Parallelism, tc.par)
				}
				if st.VisitedPaths == 0 {
					t.Error("no pop counted before the abort")
				}
				if got := st.Expanded + st.Dismissed + st.BeamTrimmed + st.InFrontier; got != st.Generated {
					t.Errorf("admission identity broken: generated %d != expanded %d + dismissed %d + trimmed %d + frontier %d",
						st.Generated, st.Expanded, st.Dismissed, st.BeamTrimmed, st.InFrontier)
				}
			} else if st.BBNodes == 0 {
				t.Error("no branch-and-bound node solved before the abort")
			}

			generous, cancelGenerous := context.WithTimeout(context.Background(), time.Minute)
			defer cancelGenerous()
			full, err := SolveContext(generous, inst, tc.opts)
			if err != nil {
				t.Fatalf("generous deadline: %v", err)
			}
			if full.Stats.Degraded || full.Stats.AbortReason != AbortNone {
				t.Errorf("generous deadline degraded the solve: reason %v", full.Stats.AbortReason)
			}
		})
	}
}
