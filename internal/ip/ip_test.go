package ip

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"cosched/internal/abort"
	"cosched/internal/bruteforce"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/telemetry"
	"cosched/internal/workload"
)

func buildCost(t *testing.T, n, u int, seed int64, mode degradation.Mode) *degradation.Cost {
	t.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SyntheticSerialInstance(n, &m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in.Cost(mode)
}

func buildMixedCost(t *testing.T, total, parJobs, per, u int, seed int64) *degradation.Cost {
	t.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SyntheticMixedInstance(total, parJobs, per, &m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in.Cost(degradation.ModePC)
}

func TestModelColumnCount(t *testing.T) {
	c := buildCost(t, 8, 2, 1, degradation.ModePC)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Columns); got != 28 { // C(8,2)
		t.Errorf("columns = %d; want 28", got)
	}
	if m.NumVars() != 28 { // serial batch: no y variables
		t.Errorf("NumVars = %d; want 28", m.NumVars())
	}
	for i, cols := range m.colsByProc {
		if len(cols) != 7 { // each process appears in C(7,1) columns
			t.Errorf("process %d appears in %d columns; want 7", i+1, len(cols))
		}
	}
}

func TestModelGuard(t *testing.T) {
	c := buildCost(t, 48, 8, 1, degradation.ModePC)
	if _, err := BuildModel(c); err == nil {
		t.Error("model guard did not trip on C(48,8)")
	}
}

func TestSolveMatchesBruteForceSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := buildCost(t, 8, 2, seed, degradation.ModePC)
		m, err := BuildModel(c)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := bruteforce.Solve(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range Configs() {
			res, err := Solve(m, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %s: %v", seed, cfg.Name, err)
			}
			if res.Stats.Degraded {
				t.Fatalf("seed %d cfg %s: not optimal (%v)", seed, cfg.Name, res.Stats.Aborted)
			}
			if err := c.ValidatePartition(res.Groups); err != nil {
				t.Fatalf("seed %d cfg %s: %v", seed, cfg.Name, err)
			}
			if math.Abs(res.Cost-bf.Cost) > 1e-6 {
				t.Errorf("seed %d cfg %s: IP %v != optimum %v", seed, cfg.Name, res.Cost, bf.Cost)
			}
		}
	}
}

func TestSolveMatchesBruteForceQuadSerial(t *testing.T) {
	c := buildCost(t, 12, 4, 2, degradation.ModePC)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := bruteforce.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(m, ConfigA)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-bf.Cost) > 1e-6 {
		t.Errorf("IP %v != optimum %v", res.Cost, bf.Cost)
	}
}

func TestSolveMatchesBruteForceMixed(t *testing.T) {
	// The Eq. 7-8 y-linearisation must reproduce the per-job max
	// objective exactly.
	for seed := int64(1); seed <= 3; seed++ {
		c := buildMixedCost(t, 8, 1, 4, 2, seed)
		m, err := BuildModel(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.ParJobs) != 1 {
			t.Fatalf("parallel jobs = %d; want 1", len(m.ParJobs))
		}
		bf, err := bruteforce.Solve(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{ConfigA, ConfigD} {
			res, err := Solve(m, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %s: %v", seed, cfg.Name, err)
			}
			if math.Abs(res.Cost-bf.Cost) > 1e-6 {
				t.Errorf("seed %d cfg %s: IP %v != optimum %v", seed, cfg.Name, res.Cost, bf.Cost)
			}
		}
	}
}

func TestSolveMixedQuadCore(t *testing.T) {
	c := buildMixedCost(t, 12, 2, 3, 4, 5)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := bruteforce.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(m, ConfigA)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-bf.Cost) > 1e-6 {
		t.Errorf("IP %v != optimum %v", res.Cost, bf.Cost)
	}
}

// TestTimeLimit checks the solve's wall-clock budget, the context
// deadline: one that expires mid-search degrades with reason deadline
// and a valid partition, never an error. The trace sink holds the solve
// at its first incumbent until the deadline has passed, so the expiry is
// mid-search on any host.
func TestTimeLimit(t *testing.T) {
	// Seed 1 takes 7 branch-and-bound nodes under ConfigD and finds its
	// first incumbent before the last of them.
	c := buildCost(t, 12, 4, 1, degradation.ModePC)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	held := false
	cfg := ConfigD
	cfg.Ctx = ctx
	cfg.Trace = telemetry.NewEmitter(telemetry.EventSinkFunc(func(ev telemetry.Event) error {
		if ev.Ev == "incumbent" && !held {
			<-ctx.Done()
			held = true
		}
		return nil
	}))
	res, err := Solve(m, cfg)
	if err != nil {
		t.Fatalf("deadline-cut solve errored instead of degrading: %v", err)
	}
	if !held {
		t.Fatal("the solve found no incumbent before it ended")
	}
	if !res.Stats.Degraded || res.Stats.Aborted != abort.Deadline {
		t.Errorf("stats not flagged degraded/deadline: %+v", res.Stats)
	}
	if err := c.ValidatePartition(res.Groups); err != nil {
		t.Errorf("degraded partition invalid: %v", err)
	}
}

func TestMaxNodes(t *testing.T) {
	c := buildCost(t, 12, 4, 3, degradation.ModePC)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigA
	cfg.MaxNodes = 1
	res, err := Solve(m, cfg)
	if err != nil {
		// acceptable: no feasible solution within one node
		return
	}
	if res.Stats.Nodes > 1 {
		t.Errorf("node limit ignored: %d nodes", res.Stats.Nodes)
	}
}

// TestSolveEmitsTraceEvents pins the branch-and-bound trace contract:
// the stream opens with solve_start (method "ip:<config>"), carries one
// monotone non-increasing incumbent event per bound improvement, and
// closes with stats + solution whose counters and cost match the Result.
func TestSolveEmitsTraceEvents(t *testing.T) {
	c := buildCost(t, 8, 2, 3, degradation.ModePC)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := ConfigA
	cfg.Trace = telemetry.NewEmitter(telemetry.NewEventWriter(&buf))
	res, err := Solve(m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	events, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("trace too short: %v", events)
	}
	first, last := events[0], events[len(events)-1]
	if first.Ev != "solve_start" || first.Method != "ip:bnb-best+round" || first.N != 8 {
		t.Errorf("bad solve_start: %+v", first)
	}
	if first.SolveID == 0 {
		t.Error("trace events carry no solve_id")
	}
	if last.Ev != "solution" || math.Abs(last.Cost-res.Cost) > 1e-9 {
		t.Errorf("bad solution event: %+v (want cost %v)", last, res.Cost)
	}
	prevIncumbent := math.Inf(1)
	improvements := int64(0)
	var statsEv *telemetry.Event
	for i, ev := range events {
		if ev.SolveID != first.SolveID {
			t.Fatalf("event %d solve_id %d != %d", i, ev.SolveID, first.SolveID)
		}
		switch ev.Ev {
		case "incumbent":
			improvements++
			if ev.Cost > prevIncumbent+1e-12 {
				t.Errorf("incumbent worsened: %v after %v", ev.Cost, prevIncumbent)
			}
			prevIncumbent = ev.Cost
		case "stats":
			statsEv = &events[i]
		}
	}
	if improvements != res.Stats.BoundImprovements {
		t.Errorf("trace has %d incumbent events, Stats counted %d", improvements, res.Stats.BoundImprovements)
	}
	if statsEv == nil || statsEv.Nodes != res.Stats.Nodes || statsEv.LPIters != res.Stats.LPIters {
		t.Errorf("stats event %+v disagrees with Stats %+v", statsEv, res.Stats)
	}
}

func TestConfigsOrder(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 4 {
		t.Fatalf("configs = %d; want 4", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if names[c.Name] {
			t.Errorf("duplicate config name %q", c.Name)
		}
		names[c.Name] = true
	}
}

// TestAbortContext covers the anytime contract for branch-and-bound:
// an already-done context — cancelled or past its deadline — must yield
// a valid degraded partition immediately, never an error.
func TestAbortContext(t *testing.T) {
	c := buildCost(t, 12, 4, 1, degradation.ModePC)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancelExp := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExp()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want abort.Reason
	}{
		{"expired", expired, abort.Deadline},
		{"cancelled", cancelled, abort.Cancel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ConfigA
			cfg.Ctx = tc.ctx
			res, err := Solve(m, cfg)
			if err != nil {
				t.Fatalf("aborted solve errored instead of degrading: %v", err)
			}
			if !res.Stats.Degraded || res.Stats.Aborted != tc.want {
				t.Errorf("stats not flagged degraded/%v: %+v", tc.want, res.Stats)
			}
			if err := c.ValidatePartition(res.Groups); err != nil {
				t.Errorf("degraded partition invalid: %v", err)
			}
		})
	}
}

// TestAbortNodeCapDegrades pins the new MaxNodes semantics: the node cap
// degrades instead of erroring, carries reason "expansions", and the
// trace ends with an abort event the solution repeats.
func TestAbortNodeCapDegrades(t *testing.T) {
	// Seed 1 needs 9 branch-and-bound nodes under ConfigA, so a cap of
	// one is guaranteed to bite.
	c := buildCost(t, 12, 4, 1, degradation.ModePC)
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := ConfigA
	cfg.MaxNodes = 1
	cfg.Trace = telemetry.NewEmitter(telemetry.NewEventWriter(&buf))
	res, err := Solve(m, cfg)
	if err != nil {
		t.Fatalf("node-capped solve errored instead of degrading: %v", err)
	}
	if !res.Stats.Degraded || res.Stats.Aborted != abort.Expansions {
		t.Errorf("stats not flagged degraded/expansions: %+v", res.Stats)
	}
	if err := c.ValidatePartition(res.Groups); err != nil {
		t.Errorf("degraded partition invalid: %v", err)
	}
	evs, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var abortReason, solReason string
	for _, ev := range evs {
		switch ev.Ev {
		case "abort":
			abortReason = ev.Reason
		case "solution":
			solReason = ev.Reason
		}
	}
	if abortReason != "expansions" || solReason != "expansions" {
		t.Errorf("trace abort/solution reasons = %q/%q; want expansions/expansions", abortReason, solReason)
	}
}
