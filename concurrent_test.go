package cosched

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSolvesShareInstance exercises the serving daemon's
// contract: many simultaneous SolveContext and SolveRobust calls over
// ONE shared Instance — and therefore one shared oracle — must be
// race-free and deterministic. Run under -race (scripts/ci.sh does).
func TestConcurrentSolvesShareInstance(t *testing.T) {
	inst, err := SyntheticSerial(8, QuadCore, 11)
	if err != nil {
		t.Fatal(err)
	}

	methods := []Options{
		{Method: MethodOAStar},
		{Method: MethodHAStar},
		{Method: MethodHAStar, BeamWidth: 8, HWeight: 1.2, HStrategy: 3},
		{Method: MethodPG},
		{Method: MethodOSVP},
	}

	const rounds = 4
	var wg sync.WaitGroup
	costs := make([][]float64, len(methods))
	for mi := range methods {
		costs[mi] = make([]float64, rounds)
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(mi, r int) {
				defer wg.Done()
				sched, err := SolveContext(context.Background(), inst, methods[mi])
				if err != nil {
					t.Errorf("concurrent solve (method %v, round %d): %v", methods[mi].Method, r, err)
					return
				}
				costs[mi][r] = sched.TotalDegradation
			}(mi, r)
		}
	}
	// Robust ladders race alongside, with deadlines short enough that
	// some rungs abort mid-search while other goroutines keep querying
	// the same oracle.
	robustCosts := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			sched, err := SolveRobust(ctx, inst, Options{})
			if err != nil {
				t.Errorf("concurrent SolveRobust round %d: %v", r, err)
				return
			}
			robustCosts[r] = sched.TotalDegradation
		}(r)
	}
	wg.Wait()

	// Sharing an instance must not change answers: every round of a
	// deterministic method agrees with its first.
	for mi, opts := range methods {
		for r := 1; r < rounds; r++ {
			if costs[mi][r] != costs[mi][0] {
				t.Errorf("method %v: round %d cost %v != round 0 cost %v under concurrency",
					opts.Method, r, costs[mi][r], costs[mi][0])
			}
		}
	}
	// OA* is exact: every robust ladder answer is bounded below by it.
	exact := costs[0][0]
	for r, c := range robustCosts {
		if c < exact-1e-9 {
			t.Errorf("robust round %d cost %v beat the exact optimum %v", r, c, exact)
		}
	}
}
