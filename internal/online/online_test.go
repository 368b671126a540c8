package online

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/job"
	"cosched/internal/telemetry"
	"cosched/internal/workload"
)

func testSetup(t *testing.T, nJobs int, seed int64) (*degradation.Cost, func(job.ProcID) float64, []Arrival) {
	t.Helper()
	m := cache.QuadCore
	in, err := workload.SyntheticSerialInstance(nJobs, &m, seed)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cost(degradation.ModePC)
	arrivals := make([]Arrival, len(in.Batch.Jobs))
	for i := range arrivals {
		arrivals[i] = Arrival{Job: job.JobID(i), Time: float64(i) * 2}
	}
	return c, in.SoloTime, arrivals
}

func TestSimulateBasics(t *testing.T) {
	c, solo, arrivals := testSetup(t, 8, 1)
	res, err := Simulate(c, solo, 2, arrivals, FirstFit{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinish) != 8 {
		t.Fatalf("finished %d jobs; want 8", len(res.JobFinish))
	}
	for j, f := range res.JobFinish {
		if f < arrivals[int(j)].Time {
			t.Errorf("job %d finished (%v) before arriving (%v)", j, f, arrivals[int(j)].Time)
		}
		// A co-run job cannot beat its solo time.
		pid := c.Batch.Jobs[j].Procs[0]
		if f-arrivals[int(j)].Time < solo(pid)-1e-9 {
			t.Errorf("job %d turnaround %v below solo time %v", j, f-arrivals[int(j)].Time, solo(pid))
		}
	}
	if res.Makespan <= 0 || res.MeanTurnaround <= 0 {
		t.Errorf("degenerate result %+v", res)
	}
}

func TestAllPoliciesComplete(t *testing.T) {
	c, solo, arrivals := testSetup(t, 12, 3)
	for _, p := range []Policy{FirstFit{}, Spread{}, ContentionAware{},
		Random{Rng: rand.New(rand.NewSource(1))}} {
		res, err := Simulate(c, solo, 3, arrivals, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.JobFinish) != 12 {
			t.Errorf("%s: finished %d jobs", p.Name(), len(res.JobFinish))
		}
	}
}

func TestContentionAwareBeatsFirstFitOnAverage(t *testing.T) {
	// Aggregated over seeds: contention-aware placement must not lose
	// to contention-oblivious packing on total turnaround.
	var ffSum, caSum float64
	for seed := int64(1); seed <= 6; seed++ {
		c, solo, arrivals := testSetup(t, 12, seed)
		ff, err := Simulate(c, solo, 3, arrivals, FirstFit{})
		if err != nil {
			t.Fatal(err)
		}
		ca, err := Simulate(c, solo, 3, arrivals, ContentionAware{})
		if err != nil {
			t.Fatal(err)
		}
		ffSum += ff.MeanTurnaround
		caSum += ca.MeanTurnaround
	}
	if caSum > ffSum*1.02 {
		t.Errorf("contention-aware mean turnaround %v worse than first-fit %v", caSum, ffSum)
	}
}

func TestQueueingWhenClusterFull(t *testing.T) {
	// One machine, jobs arriving together: later jobs must queue and
	// still finish.
	c, solo, _ := testSetup(t, 8, 5)
	arrivals := make([]Arrival, 8)
	for i := range arrivals {
		arrivals[i] = Arrival{Job: job.JobID(i), Time: 0}
	}
	res, err := Simulate(c, solo, 1, arrivals, FirstFit{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinish) != 8 {
		t.Fatalf("finished %d jobs; want 8", len(res.JobFinish))
	}
	// With 4 cores and 8 serial jobs, at least two "waves" run: the
	// makespan must exceed the largest solo time.
	var maxSolo float64
	for p := 1; p <= 8; p++ {
		maxSolo = math.Max(maxSolo, solo(job.ProcID(p)))
	}
	if res.Makespan <= maxSolo {
		t.Errorf("makespan %v <= max solo %v despite queueing", res.Makespan, maxSolo)
	}
}

func TestSimulateValidation(t *testing.T) {
	c, solo, arrivals := testSetup(t, 8, 1)
	// unsorted arrivals
	bad := append([]Arrival(nil), arrivals...)
	bad[0], bad[1] = bad[1], bad[0]
	if _, err := Simulate(c, solo, 2, bad, FirstFit{}); err == nil {
		t.Error("unsorted arrivals accepted")
	}
	// duplicate arrival
	dup := append([]Arrival(nil), arrivals...)
	dup[1].Job = dup[0].Job
	if _, err := Simulate(c, solo, 2, dup, FirstFit{}); err == nil {
		t.Error("duplicate arrival accepted")
	}
	// missing jobs
	if _, err := Simulate(c, solo, 2, arrivals[:4], FirstFit{}); err == nil {
		t.Error("partial arrival list accepted")
	}
	// cluster too small for any placement: deadlock must be reported
	m := cache.QuadCore
	in, err := workload.SyntheticMixedInstance(8, 1, 8, &m, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm := in.Cost(degradation.ModePC)
	if _, err := Simulate(cm, in.SoloTime, 1,
		[]Arrival{{Job: 0, Time: 0}}, FirstFit{}); err == nil {
		t.Error("impossible placement did not deadlock-error")
	}
}

func TestParallelJobFinishesWithSlowestRank(t *testing.T) {
	m := cache.QuadCore
	in, err := workload.SyntheticMixedInstance(8, 1, 4, &m, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cost(degradation.ModePC)
	arrivals := make([]Arrival, len(in.Batch.Jobs))
	for i := range arrivals {
		arrivals[i] = Arrival{Job: job.JobID(i), Time: 0}
	}
	res, err := Simulate(c, in.SoloTime, 2, arrivals, ContentionAware{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinish) != len(in.Batch.Jobs) {
		t.Fatalf("finished %d of %d jobs", len(res.JobFinish), len(in.Batch.Jobs))
	}
}

func TestArrivalGenerators(t *testing.T) {
	u := UniformArrivals(5, 3)
	if len(u) != 5 || u[4].Time != 12 || u[2].Job != 2 {
		t.Errorf("UniformArrivals = %v", u)
	}
	p := PoissonArrivals(10, 2, 7)
	if len(p) != 10 {
		t.Fatalf("PoissonArrivals = %d entries", len(p))
	}
	seen := map[job.JobID]bool{}
	for i, a := range p {
		if i > 0 && a.Time < p[i-1].Time {
			t.Fatal("Poisson arrivals not sorted")
		}
		if seen[a.Job] {
			t.Fatal("duplicate job in Poisson trace")
		}
		seen[a.Job] = true
	}
	// determinism
	p2 := PoissonArrivals(10, 2, 7)
	for i := range p {
		if p[i] != p2[i] {
			t.Fatal("Poisson trace not deterministic")
		}
	}
	b := BurstyArrivals(7, 3, 10)
	if b[0].Time != 0 || b[2].Time != 0 || b[3].Time != 10 || b[6].Time != 20 {
		t.Errorf("BurstyArrivals = %v", b)
	}
	if got := BurstyArrivals(3, 0, 5); got[1].Time != 5 {
		t.Errorf("burstSize floor failed: %v", got)
	}
}

func TestSimulateWithGeneratedTraces(t *testing.T) {
	c, solo, _ := testSetup(t, 8, 9)
	for _, arr := range [][]Arrival{
		PoissonArrivals(8, 3, 1),
		BurstyArrivals(8, 4, 20),
	} {
		res, err := Simulate(c, solo, 2, arr, ContentionAware{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.JobFinish) != 8 {
			t.Fatalf("finished %d jobs", len(res.JobFinish))
		}
	}
}

// TestSimulateTracedEmitsEvents pins the online trace contract: the
// stream opens with solve_start (method "online:<policy>"), every job
// contributes an arrival → place → job_done chain in causal simulated-
// time order with 1-based job numbers, and the closing solution event
// carries the makespan.
func TestSimulateTracedEmitsEvents(t *testing.T) {
	c, solo, arrivals := testSetup(t, 8, 1)
	var buf bytes.Buffer
	reg := telemetry.New()
	res, err := SimulateWithFaults(c, solo, 2, arrivals, FirstFit{},
		Observer{Metrics: reg, Trace: telemetry.NewEmitter(telemetry.NewEventWriter(&buf))}, nil)
	if err != nil {
		t.Fatal(err)
	}

	events, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first, last := events[0], events[len(events)-1]
	if first.Ev != "solve_start" || first.Method != "online:first-fit" || first.N != 8 {
		t.Errorf("bad solve_start: %+v", first)
	}
	if first.SolveID == 0 {
		t.Error("trace events carry no solve_id")
	}
	if last.Ev != "solution" || math.Abs(last.Cost-res.Makespan) > 1e-9 {
		t.Errorf("bad solution event: %+v (want makespan %v)", last, res.Makespan)
	}

	type chain struct{ arrived, placed, done bool }
	chains := map[int]*chain{}
	get := func(j int) *chain {
		if chains[j] == nil {
			chains[j] = &chain{}
		}
		return chains[j]
	}
	prevT := 0.0
	for i, ev := range events {
		if ev.SolveID != first.SolveID {
			t.Fatalf("event %d solve_id %d != %d", i, ev.SolveID, first.SolveID)
		}
		switch ev.Ev {
		case "arrival":
			get(ev.Job).arrived = true
		case "place":
			ch := get(ev.Job)
			if !ch.arrived {
				t.Fatalf("job %d placed before arriving", ev.Job)
			}
			ch.placed = true
			if len(ev.Machines) != 1 {
				t.Fatalf("place event machines = %v, want 1 per serial job", ev.Machines)
			}
		case "job_done":
			ch := get(ev.Job)
			if !ch.placed {
				t.Fatalf("job %d done before being placed", ev.Job)
			}
			ch.done = true
		}
		if ev.T < prevT-1e-9 {
			t.Fatalf("event %d simulated clock went backwards: %v after %v", i, ev.T, prevT)
		}
		if ev.T > prevT {
			prevT = ev.T
		}
	}
	if len(chains) != 8 {
		t.Fatalf("trace covers %d jobs, want 8", len(chains))
	}
	for j, ch := range chains {
		if !ch.arrived || !ch.placed || !ch.done {
			t.Errorf("job %d chain incomplete: %+v", j, ch)
		}
		if j < 1 || j > 8 {
			t.Errorf("job number %d outside the 1-based range", j)
		}
	}
	if got := reg.Counter("online.placements").Value(); got != 8 {
		t.Errorf("online.placements = %d, want 8 (metrics leg of the observer)", got)
	}
}
