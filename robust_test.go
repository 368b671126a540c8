package cosched

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cosched/internal/telemetry"
)

// validGroups fails the test unless the schedule is a partition of
// processes 1..n with no machine over u cores.
func validGroups(t *testing.T, sched *Schedule, n, u int) {
	t.Helper()
	seen := make([]int, n+1)
	for mi, g := range sched.Groups() {
		if len(g) > u {
			t.Errorf("machine %d holds %d processes, capacity %d", mi, len(g), u)
		}
		for _, p := range g {
			if p < 1 || p > n {
				t.Fatalf("machine %d holds process %d outside 1..%d", mi, p, n)
			}
			seen[p]++
		}
	}
	for p := 1; p <= n; p++ {
		if seen[p] != 1 {
			t.Errorf("process %d appears %d times", p, seen[p])
		}
	}
}

func TestSolveContextExpiredAllMethods(t *testing.T) {
	inst, err := SyntheticSerial(16, QuadCore, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, m := range []Method{MethodOAStar, MethodHAStar, MethodIP, MethodOSVP, MethodPG, MethodBruteForce} {
		start := time.Now()
		sched, err := SolveContext(ctx, inst, Options{Method: m})
		took := time.Since(start)
		if err != nil {
			t.Errorf("%v under expired deadline errored: %v", m, err)
			continue
		}
		if took > time.Second {
			t.Errorf("%v under expired deadline took %v; want well under 1s", m, took)
		}
		if !sched.Stats.Degraded {
			t.Errorf("%v under expired deadline not flagged degraded", m)
		}
		if sched.Stats.AbortReason == AbortNone {
			t.Errorf("%v under expired deadline carries no abort reason", m)
		}
		validGroups(t, sched, 16, 4)
	}
}

func TestSolveContextCancelDuringSolve(t *testing.T) {
	inst, err := SyntheticSerial(20, QuadCore, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	sched, err := SolveContext(ctx, inst, Options{Method: MethodOAStar})
	if err != nil {
		t.Fatalf("cancelled solve errored: %v", err)
	}
	// The cancel may land after a fast solve completed; degradation is
	// only required when the solve was actually interrupted.
	if sched.Stats.Degraded && sched.Stats.AbortReason != AbortCancel {
		t.Errorf("cancelled solve aborted with %v; want %v", sched.Stats.AbortReason, AbortCancel)
	}
	validGroups(t, sched, 20, 4)
}

func TestSolveRobustNoDeadlineAnswersAtFirstRung(t *testing.T) {
	inst := buildSmallInstance(t)
	sched, err := SolveRobust(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.Degraded {
		t.Errorf("unconstrained robust solve degraded: %+v", sched.Stats)
	}
	if len(sched.Stats.Fallbacks) != 1 {
		t.Fatalf("fallbacks = %+v; want exactly the OA* rung", sched.Stats.Fallbacks)
	}
	if fb := sched.Stats.Fallbacks[0]; fb.Method != MethodOAStar || fb.Degraded || fb.Err != "" {
		t.Errorf("first rung record = %+v; want clean OA*", fb)
	}
	validGroups(t, sched, 8, 4)

	// The unconstrained ladder must land on the true optimum.
	bf, err := Solve(inst, Options{Method: MethodBruteForce})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sched.TotalDegradation-bf.TotalDegradation) > 1e-6 {
		t.Errorf("robust cost %v != optimum %v", sched.TotalDegradation, bf.TotalDegradation)
	}
}

func TestSolveRobustExpiredDeadlineStillAnswers(t *testing.T) {
	inst, err := SyntheticSerial(16, QuadCore, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	sched, err := SolveRobust(ctx, inst, Options{})
	if err != nil {
		t.Fatalf("robust solve under expired deadline errored: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("robust solve under expired deadline took %v", took)
	}
	if !sched.Stats.Degraded {
		t.Error("robust solve under expired deadline not flagged degraded")
	}
	if got := len(sched.Stats.Fallbacks); got != len(robustRungs) {
		t.Errorf("ladder recorded %d attempts; want %d (every rung degraded)", got, len(robustRungs))
	}
	validGroups(t, sched, 16, 4)
}

// TestSolveRobustExpiredShareSkipsRungs pins the rung-budget split: a
// rung whose deadline share has already expired must be skipped (never
// silently handed the whole parent context), while the final PG rung
// always runs and answers. Pre-fix, every rung ran on the expired parent
// context and recorded a real degraded attempt.
func TestSolveRobustExpiredShareSkipsRungs(t *testing.T) {
	inst, err := SyntheticSerial(16, QuadCore, 3)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(-time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	sched, err := SolveRobust(ctx, inst, Options{})
	if err != nil {
		t.Fatalf("robust solve under expired deadline errored: %v", err)
	}
	fbs := sched.Stats.Fallbacks
	if len(fbs) != len(robustRungs) {
		t.Fatalf("ladder recorded %d attempts; want %d", len(fbs), len(robustRungs))
	}
	for i, fb := range fbs[:len(fbs)-1] {
		if fb.Err == "" {
			t.Errorf("rung %d (%v) ran with an expired share; want it skipped", i, fb.Method)
		}
		// A skipped rung did no work, so its recorded duration must
		// respect its (zero) share.
		if fb.Duration != 0 {
			t.Errorf("rung %d (%v) skipped but recorded %v of work", i, fb.Method, fb.Duration)
		}
	}
	last := fbs[len(fbs)-1]
	if last.Method != MethodPG || last.Err != "" {
		t.Errorf("final attempt = %+v; want a real PG run", last)
	}
	if !sched.Stats.Degraded {
		t.Error("schedule under expired deadline not flagged degraded")
	}
	validGroups(t, sched, 16, 4)
}

// TestSolveRobustRungDurationsRespectShares runs the ladder under a
// nearly-expired deadline and checks that no rung's recorded duration
// exceeds the whole deadline (each rung's share is at most the full
// remaining time), i.e. an expired share can never hand a rung the
// unbounded parent context.
func TestSolveRobustRungDurationsRespectShares(t *testing.T) {
	inst, err := SyntheticSerial(24, QuadCore, 2)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 40 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	sched, err := SolveRobust(ctx, inst, Options{})
	if err != nil {
		t.Fatalf("robust solve under tight deadline errored: %v", err)
	}
	// Generous slack for scheduler jitter: the point is "bounded by the
	// deadline", not precise timing.
	for i, fb := range sched.Stats.Fallbacks {
		if fb.Duration > deadline+500*time.Millisecond {
			t.Errorf("rung %d (%v) ran %v; share can never exceed the %v deadline",
				i, fb.Method, fb.Duration, deadline)
		}
	}
	validGroups(t, sched, 24, 4)
}

// cancelOnMemoryAbortSink cancels a context the moment a solver reports
// a memory abort — deterministically exhausting the rung context between
// a rung's first attempt and its would-be halved-budget retry.
type cancelOnMemoryAbortSink struct{ cancel context.CancelFunc }

// Emit implements telemetry.EventSink.
func (s *cancelOnMemoryAbortSink) Emit(ev telemetry.Event) error {
	if ev.Ev == "abort" && ev.Reason == "memory" {
		s.cancel()
	}
	return nil
}

// TestSolveRobustNoRetryOnExhaustedRungContext pins the memory-retry
// guard: when a rung's first attempt aborts on MemoryBudget and the rung
// context is already spent, the ladder must move on instead of burning a
// second attempt on a context that cannot search. Pre-fix, the retry
// reused the exhausted context and recorded a pointless second degraded
// attempt on the same rung.
func TestSolveRobustNoRetryOnExhaustedRungContext(t *testing.T) {
	inst, err := SyntheticSerial(16, QuadCore, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnMemoryAbortSink{cancel: cancel}
	// A 2KiB budget is below any solver's initial footprint, so the
	// first graph rung aborts AbortMemory on its first poll; the sink
	// then kills the parent (and with it the rung) context.
	sched, err := SolveRobust(ctx, inst, Options{MemoryBudget: 2048, EventSink: sink})
	if err != nil {
		t.Fatalf("robust solve errored: %v", err)
	}
	var prev Fallback
	for i, fb := range sched.Stats.Fallbacks {
		if i > 0 && fb.Method == prev.Method && prev.Aborted == AbortMemory && fb.Aborted == AbortCancel {
			t.Errorf("rung %v retried on an exhausted context: %+v", fb.Method, sched.Stats.Fallbacks)
		}
		prev = fb
	}
	validGroups(t, sched, 16, 4)
}

func TestOptionValidation(t *testing.T) {
	inst := buildSmallInstance(t)
	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"negative KPerLevel", Options{Method: MethodHAStar, KPerLevel: -1}, "KPerLevel"},
		{"negative MaxExpansions", Options{MaxExpansions: -5}, "MaxExpansions"},
		{"NaN HWeight", Options{Method: MethodHAStar, HWeight: math.NaN()}, "HWeight"},
		{"negative HWeight", Options{Method: MethodHAStar, HWeight: -1}, "HWeight"},
		{"negative BeamWidth", Options{Method: MethodHAStar, BeamWidth: -2}, "BeamWidth"},
		{"negative MemoryBudget", Options{MemoryBudget: -1}, "MemoryBudget"},
		{"unknown IPConfig", Options{Method: MethodIP, IPConfig: "bnb-imaginary"}, "IPConfig"},
		{"unknown Method", Options{Method: Method(42)}, "Method"},
		{"out-of-range HStrategy", Options{HStrategy: 9}, "HStrategy"},
		{"unknown Accounting", Options{Accounting: Accounting(7)}, "Accounting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Solve(inst, tc.opts)
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("got %v; want *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Errorf("rejected field %q; want %q", oe.Field, tc.field)
			}
			if !strings.Contains(oe.Error(), tc.field) {
				t.Errorf("error text %q does not name the field", oe.Error())
			}
		})
	}
}

// panicSink blows up on the first emitted event, standing in for a
// buggy user-supplied observer.
type panicSink struct{ emitted bool }

func (p *panicSink) Emit(telemetry.Event) error {
	p.emitted = true
	panic("sink exploded")
}

func TestSolveRecoversSinkPanic(t *testing.T) {
	inst := buildSmallInstance(t)
	sink := &panicSink{}
	sched, err := Solve(inst, Options{Method: MethodOAStar, EventSink: sink})
	if sched != nil {
		t.Error("panicking solve returned a schedule")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v; want *PanicError", err)
	}
	if pe.Value != "sink exploded" {
		t.Errorf("recovered value %v; want the sink's panic", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if !sink.emitted {
		t.Error("sink never saw an event — panic came from elsewhere")
	}
}
