package online

import (
	"bytes"
	"errors"
	"testing"

	"cosched/internal/abort"
	"cosched/internal/job"
	"cosched/internal/telemetry"
)

// crashPlan is the deterministic fault schedule the tests share: one
// mid-run crash-and-restore, guaranteed transient failures, and a noisy
// oracle.
func crashPlan() *FaultPlan {
	return &FaultPlan{
		Seed:             7,
		Machines:         []MachineFault{{Machine: 0, FailAt: 5, RecoverAt: 30}},
		PlaceFailureProb: 1, // every job fails MaxPlaceFailures times
		MaxPlaceFailures: 2,
		OracleNoise:      0.1,
	}
}

func TestSimulateWithFaultsCompletes(t *testing.T) {
	c, solo, arrivals := testSetup(t, 12, 1)
	var buf bytes.Buffer
	reg := telemetry.New()
	res, err := SimulateWithFaults(c, solo, 3, arrivals, FirstFit{},
		Observer{Metrics: reg, Trace: telemetry.NewEmitter(telemetry.NewEventWriter(&buf))}, crashPlan())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinish) != 12 {
		t.Fatalf("finished %d jobs; want 12 despite faults", len(res.JobFinish))
	}
	for j, f := range res.JobFinish {
		if f < arrivals[int(j)].Time {
			t.Errorf("job %d finished (%v) before arriving (%v)", j, f, arrivals[int(j)].Time)
		}
	}

	events, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Ev]++
		switch ev.Ev {
		case "place_fail":
			if ev.Reason != "transient" || ev.Delay <= 0 {
				t.Errorf("bad place_fail event: %+v", ev)
			}
		case "evict":
			if ev.Job < 1 || len(ev.Machines) == 0 {
				t.Errorf("bad evict event: %+v", ev)
			}
		}
	}
	if kinds["machine_down"] != 1 || kinds["machine_up"] != 1 {
		t.Errorf("machine events down=%d up=%d; want 1 each", kinds["machine_down"], kinds["machine_up"])
	}
	if kinds["evict"] == 0 {
		t.Error("crash at t=5 with jobs running evicted nothing")
	}
	// Every job rolls PlaceFailureProb=1 until its cap of 2 failures.
	if kinds["place_fail"] != 24 {
		t.Errorf("place_fail events = %d; want 12 jobs x 2 capped failures", kinds["place_fail"])
	}

	if got := reg.Counter("online.faults.machine_down").Value(); got != 1 {
		t.Errorf("online.faults.machine_down = %d", got)
	}
	if got := reg.Counter("online.faults.evictions").Value(); got == 0 {
		t.Error("online.faults.evictions = 0")
	}
	if got := reg.Counter("online.faults.place_failures").Value(); got != 24 {
		t.Errorf("online.faults.place_failures = %d; want 24", got)
	}
}

func TestSimulateWithFaultsDeterministic(t *testing.T) {
	c, solo, arrivals := testSetup(t, 10, 2)
	plan := RandomFaultPlan(3, 3, 60)
	a, err := SimulateWithFaults(c, solo, 3, arrivals, ContentionAware{}, Observer{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateWithFaults(c, solo, 3, arrivals, ContentionAware{}, Observer{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.MeanTurnaround != b.MeanTurnaround {
		t.Errorf("same plan, different outcomes: %+v vs %+v", a, b)
	}
	for j, f := range a.JobFinish {
		if b.JobFinish[j] != f {
			t.Errorf("job %d finish %v vs %v", j, f, b.JobFinish[j])
		}
	}
}

func TestPermanentCrashShiftsLoad(t *testing.T) {
	c, solo, arrivals := testSetup(t, 8, 4)
	// Machine 0 dies at t=1 and never recovers; the survivor must absorb
	// everything, including the evicted early placements.
	plan := &FaultPlan{Seed: 1, Machines: []MachineFault{{Machine: 0, FailAt: 1, RecoverAt: 0}}}
	res, err := SimulateWithFaults(c, solo, 2, arrivals, FirstFit{}, Observer{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JobFinish) != 8 {
		t.Fatalf("finished %d jobs; want 8 on the surviving machine", len(res.JobFinish))
	}
	clean, err := Simulate(c, solo, 2, arrivals, FirstFit{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < clean.Makespan {
		t.Errorf("makespan %v improved by losing half the cluster (fault-free %v)",
			res.Makespan, clean.Makespan)
	}
}

func TestBackoffCapped(t *testing.T) {
	f := &faultState{plan: &FaultPlan{BackoffBase: 0.5, BackoffCap: 2}}
	for _, tc := range []struct {
		fails int
		want  float64
	}{{1, 0.5}, {2, 1}, {3, 2}, {10, 2}} {
		if got := f.backoff(tc.fails); got != tc.want {
			t.Errorf("backoff(%d) = %v; want %v", tc.fails, got, tc.want)
		}
	}
	// Defaults: base 0.1, cap 20x base.
	d := &faultState{plan: &FaultPlan{}}
	if got := d.backoff(1); got != 0.1 {
		t.Errorf("default backoff(1) = %v; want 0.1", got)
	}
	if got := d.backoff(30); got != 2 {
		t.Errorf("default backoff(30) = %v; want the 2.0 cap", got)
	}
}

// panicPolicy stands in for a buggy scheduling policy.
type panicPolicy struct{}

func (panicPolicy) Name() string                            { return "panicky" }
func (panicPolicy) Place(*System, job.JobID) ([]int, error) { panic("policy exploded") }

func TestSimulateRecoversPolicyPanic(t *testing.T) {
	c, solo, arrivals := testSetup(t, 8, 1)
	res, err := SimulateWithFaults(c, solo, 2, arrivals, panicPolicy{}, Observer{}, nil)
	if res != nil {
		t.Error("panicking policy returned a result")
	}
	var pe *abort.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v; want *abort.PanicError", err)
	}
	if pe.Value != "policy exploded" {
		t.Errorf("recovered value %v", pe.Value)
	}
}
