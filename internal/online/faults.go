package online

import (
	"math"
	"math/rand"
	"sort"

	"cosched/internal/job"
	"cosched/internal/telemetry"
)

// MachineFault takes one machine down at FailAt and (optionally) back up
// at RecoverAt, on the simulated clock. A RecoverAt at or before FailAt
// means the machine never comes back.
type MachineFault struct {
	Machine   int
	FailAt    float64
	RecoverAt float64
}

// FaultPlan is a seeded, reproducible description of everything that
// goes wrong during an online simulation: machine crashes and restores,
// transient placement failures, and a systematically misestimated
// degradation oracle. A nil plan is the no-fault fast path.
type FaultPlan struct {
	// Seed drives every random draw of the plan (placement failures and
	// oracle noise), so a run is exactly reproducible.
	Seed int64
	// Machines lists the crash/restore schedule. A crash evicts every
	// job with a process on the machine — the whole job, cluster-wide —
	// preserving each process's remaining work and requeueing the job at
	// the front of the queue.
	Machines []MachineFault
	// PlaceFailureProb is the probability that an otherwise-successful
	// placement transiently fails (an RPC timeout, a slow cgroup setup).
	// The job backs off exponentially and retries.
	PlaceFailureProb float64
	// MaxPlaceFailures caps the injected failures per job (0 = 3), so a
	// job cannot be starved forever by bad dice.
	MaxPlaceFailures int
	// BackoffBase is the first retry delay in simulated seconds (0 =
	// 0.1); each subsequent failure doubles it up to BackoffCap (0 =
	// 20 × base).
	BackoffBase float64
	BackoffCap  float64
	// OracleNoise perturbs the degradation oracle the simulator's speed
	// model uses: each process's contention estimate is scaled by a
	// stable factor drawn uniformly from [1-OracleNoise, 1+OracleNoise].
	// Zero means the oracle is exact.
	OracleNoise float64
}

// RandomFaultPlan builds a reproducible plan for a cluster: one mid-run
// crash-and-restore on a random machine, a second late crash that never
// recovers on larger clusters, 20% transient placement failures and a
// 10% noisy oracle. horizon is the expected simulated makespan the
// crash times are scattered over.
func RandomFaultPlan(seed int64, machines int, horizon float64) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := &FaultPlan{
		Seed:             seed,
		PlaceFailureProb: 0.2,
		MaxPlaceFailures: 3,
		OracleNoise:      0.1,
	}
	m := rng.Intn(machines)
	fail := horizon * (0.2 + 0.3*rng.Float64())
	plan.Machines = append(plan.Machines, MachineFault{
		Machine: m, FailAt: fail, RecoverAt: fail + horizon*0.25*rng.Float64(),
	})
	if machines > 2 {
		m2 := (m + 1 + rng.Intn(machines-1)) % machines
		plan.Machines = append(plan.Machines, MachineFault{
			Machine: m2, FailAt: horizon * (0.6 + 0.3*rng.Float64()), RecoverAt: 0,
		})
	}
	return plan
}

// faultEvent is one scheduled state flip of a machine.
type faultEvent struct {
	t    float64
	m    int
	down bool
}

// faultState is the live fault machinery of one simulation.
type faultState struct {
	plan   *FaultPlan
	rng    *rand.Rand
	events []faultEvent // time-sorted; idx is the next unapplied one
	idx    int
	// noise[p-1] is the stable oracle perturbation factor of process p.
	noise []float64
	// placeFails counts injected placement failures per job; retryAt
	// holds the simulated time before which the job must not retry.
	placeFails map[job.JobID]int
	retryAt    map[job.JobID]float64
}

func newFaultState(plan *FaultPlan, machines, procs int) *faultState {
	f := &faultState{
		plan:       plan,
		rng:        rand.New(rand.NewSource(plan.Seed)),
		placeFails: make(map[job.JobID]int),
		retryAt:    make(map[job.JobID]float64),
	}
	for _, mf := range plan.Machines {
		if mf.Machine < 0 || mf.Machine >= machines {
			continue
		}
		f.events = append(f.events, faultEvent{t: mf.FailAt, m: mf.Machine, down: true})
		if mf.RecoverAt > mf.FailAt {
			f.events = append(f.events, faultEvent{t: mf.RecoverAt, m: mf.Machine, down: false})
		}
	}
	sort.SliceStable(f.events, func(a, b int) bool { return f.events[a].t < f.events[b].t })
	if plan.OracleNoise > 0 {
		f.noise = make([]float64, procs)
		for i := range f.noise {
			n := 1 + plan.OracleNoise*(2*f.rng.Float64()-1)
			if n < 0 {
				n = 0
			}
			f.noise[i] = n
		}
	}
	return f
}

// nextFaultTime returns the time of the next unapplied machine fault
// (+Inf when the schedule is exhausted).
func (f *faultState) nextFaultTime() float64 {
	if f == nil || f.idx >= len(f.events) {
		return math.Inf(1)
	}
	return f.events[f.idx].t
}

// backoff returns the retry delay after the job's n-th injected failure.
func (f *faultState) backoff(fails int) float64 {
	base := f.plan.BackoffBase
	if base <= 0 {
		base = 0.1
	}
	cap := f.plan.BackoffCap
	if cap <= 0 {
		cap = 20 * base
	}
	d := base * math.Pow(2, float64(fails-1))
	if d > cap {
		d = cap
	}
	return d
}

// failPlace rolls the dice for one placement attempt of job j; true
// means the attempt transiently fails and the caller must back off.
func (f *faultState) failPlace(j job.JobID) bool {
	if f == nil || f.plan.PlaceFailureProb <= 0 {
		return false
	}
	maxFails := f.plan.MaxPlaceFailures
	if maxFails == 0 {
		maxFails = 3
	}
	if f.placeFails[j] >= maxFails {
		return false
	}
	if f.rng.Float64() >= f.plan.PlaceFailureProb {
		return false
	}
	f.placeFails[j]++
	return true
}

// nextRetryTime returns when the queue's head job may retry placement
// (+Inf when it is not backing off, or the queue is empty).
func (s *System) nextRetryTime() float64 {
	if s.faults == nil || len(s.queue) == 0 {
		return math.Inf(1)
	}
	if t, ok := s.faults.retryAt[s.queue[0]]; ok && t > s.now {
		return t
	}
	return math.Inf(1)
}

// applyFaults flips every machine state scheduled at or before now:
// machine_up restores capacity; machine_down evicts every job with a
// process on the machine (whole jobs, cluster-wide), preserving their
// remaining work and requeueing them at the front of the queue.
func (s *System) applyFaults() {
	f := s.faults
	for f.idx < len(f.events) && f.events[f.idx].t <= s.now {
		ev := f.events[f.idx]
		f.idx++
		if !ev.down {
			s.down[ev.m] = false
			s.trace.Emit(telemetry.Event{Ev: "machine_up", Machines: []int{ev.m}, T: s.now})
			continue
		}
		s.down[ev.m] = true
		if s.met != nil {
			s.met.machineDowns.Add(1)
		}
		s.trace.Emit(telemetry.Event{Ev: "machine_down", Machines: []int{ev.m}, T: s.now})
		// Evict every job touching the crashed machine, in on-machine
		// order, so the outcome is deterministic.
		var victims []job.JobID
		seen := map[job.JobID]bool{}
		for _, pid := range s.perMachine[ev.m] {
			if j := s.Cost.Batch.JobOf(pid); j != nil && !seen[j.ID] {
				seen[j.ID] = true
				victims = append(victims, j.ID)
			}
		}
		for _, jid := range victims {
			s.evictJob(jid)
		}
		if len(victims) > 0 {
			s.queue = append(victims, s.queue...)
		}
	}
}

// evictJob pulls every placed process of the job off its machine,
// keeping the remaining-work counters so the job resumes where the
// crash interrupted it.
func (s *System) evictJob(jid job.JobID) {
	b := s.Cost.Batch
	var machines []int
	for _, pid := range b.Jobs[jid].Procs {
		m := s.machineOf[int(pid)-1]
		if m < 0 {
			continue
		}
		machines = append(machines, m)
		kept := s.perMachine[m][:0]
		for _, q := range s.perMachine[m] {
			if q != pid {
				kept = append(kept, q)
			}
		}
		s.perMachine[m] = kept
		s.machineOf[int(pid)-1] = -1
	}
	if s.met != nil {
		s.met.evictions.Add(1)
	}
	s.trace.Emit(telemetry.Event{Ev: "evict", Job: int(jid) + 1, Machines: machines, T: s.now})
}
