package online

import (
	"fmt"
	"math"
	"sort"

	"cosched/internal/abort"
	"cosched/internal/degradation"
	"cosched/internal/job"
	"cosched/internal/telemetry"
)

// Arrival is one job entering the system.
type Arrival struct {
	Job  job.JobID
	Time float64
}

// Policy decides where an arriving job's processes go. free lists, per
// machine, how many cores are idle; the policy returns one machine index
// per process of the job (machines may repeat up to their free count).
// Returning an error queues the job until the next completion event.
type Policy interface {
	Name() string
	// Place assigns the job's processes to machines.
	Place(sys *System, j job.JobID) ([]int, error)
}

// System is the simulated cluster.
type System struct {
	Cost     *degradation.Cost
	Solo     func(job.ProcID) float64
	Machines int
	Cores    int

	now float64
	// perMachine[m] lists the processes currently running on machine m.
	perMachine [][]job.ProcID
	// remaining[p-1] is the process's remaining work in solo-seconds;
	// NaN marks not-yet-arrived, 0 done.
	remaining []float64
	machineOf []int // machine of each running process, -1 otherwise

	queue    []job.JobID
	finished map[job.JobID]float64

	// down[m] marks machine m crashed: zero free cores, nothing runs on
	// it, until the fault plan restores it. faults is the live fault
	// machinery (nil on fault-free simulations).
	down   []bool
	faults *faultState

	// arrivedAt mirrors the arrival times during a simulation so the
	// telemetry layer can compute placement delays.
	arrivedAt map[job.JobID]float64
	met       *onlineMetrics
	trace     telemetry.Emitter
}

// onlineMetrics caches the registry handles of the online.* metric
// family. All uses are guarded by s.met != nil, so a simulation without
// telemetry pays nil checks only.
type onlineMetrics struct {
	sims, placements, queued, events *telemetry.Counter
	speedUpdates                     *telemetry.Counter
	// The online.faults.* family: machine crashes applied, jobs evicted
	// by crashes, and transient placement failures injected.
	machineDowns, evictions, placeFailures *telemetry.Counter
	queueLen                               *telemetry.Gauge
	placementDelay                         *telemetry.Histogram
}

func newOnlineMetrics(r *telemetry.Registry) *onlineMetrics {
	if r == nil {
		return nil
	}
	m := &onlineMetrics{
		sims:          r.Counter("online.simulations"),
		placements:    r.Counter("online.placements"),
		queued:        r.Counter("online.queued_jobs"),
		events:        r.Counter("online.events"),
		speedUpdates:  r.Counter("online.speed_updates"),
		machineDowns:  r.Counter("online.faults.machine_down"),
		evictions:     r.Counter("online.faults.evictions"),
		placeFailures: r.Counter("online.faults.place_failures"),
		queueLen:      r.Gauge("online.queue"),
		// Placement delay in simulated time units; the buckets cover
		// immediate placement through long head-of-line blocking.
		placementDelay: r.Histogram("online.placement_delay",
			[]float64{0, 0.1, 0.5, 1, 2, 5, 10, 30, 100}),
	}
	m.sims.Add(1)
	return m
}

// Result summarises one simulation.
type Result struct {
	Policy string
	// Makespan is when the last job finished.
	Makespan float64
	// MeanTurnaround averages (finish - arrival) over jobs.
	MeanTurnaround float64
	// JobFinish maps jobs to finish times.
	JobFinish map[job.JobID]float64
}

// NewSystem builds a cluster of the given size over the cost model.
func NewSystem(c *degradation.Cost, solo func(job.ProcID) float64, machines int) *System {
	n := c.Batch.NumProcs()
	s := &System{
		Cost:       c,
		Solo:       solo,
		Machines:   machines,
		Cores:      c.Batch.Cores,
		perMachine: make([][]job.ProcID, machines),
		remaining:  make([]float64, n),
		machineOf:  make([]int, n),
		finished:   make(map[job.JobID]float64),
		down:       make([]bool, machines),
	}
	for i := range s.remaining {
		s.remaining[i] = math.NaN()
		s.machineOf[i] = -1
	}
	return s
}

// Free returns the idle core count of machine m (0 while the machine is
// crashed).
func (s *System) Free(m int) int {
	if s.down[m] {
		return 0
	}
	return s.Cores - len(s.perMachine[m])
}

// Running returns the processes currently on machine m.
func (s *System) Running(m int) []job.ProcID { return s.perMachine[m] }

// Simulate runs the arrival sequence under the policy. Arrivals must be
// time-sorted; every job of the batch must appear exactly once.
func Simulate(c *degradation.Cost, solo func(job.ProcID) float64, machines int,
	arrivals []Arrival, p Policy) (*Result, error) {
	return SimulateWithFaults(c, solo, machines, arrivals, p, Observer{}, nil)
}

// Observer bundles the optional observation surfaces of a simulation
// run: a metrics registry (the "online.*" family: simulations,
// placements, simulation events, speed recomputations, queue length,
// and a placement-delay histogram in simulated time units; DESIGN.md
// §6) and the run's trace emitter. The trace opens with solve_start
// (method "online:<policy>"), carries the arrival/place/job_done stream
// on the simulated clock (Event.T) with 1-based job numbers, and closes
// with a solution event whose Cost is the makespan. Build one Emitter
// per run (telemetry.NewEmitter) so each run gets its own solve ID; the
// zero Emitter traces nothing.
type Observer struct {
	Metrics *telemetry.Registry
	Trace   telemetry.Emitter
}

// SimulateWithFaults is Simulate with an Observer and a seeded fault
// plan: machines crash and restore on schedule (crashes evict whole
// jobs — remaining work preserved, job requeued at the front),
// placements fail transiently with capped exponential backoff, and the
// speed model runs on a perturbed degradation oracle. A nil plan
// simulates fault-free. A panic thrown by the policy's Place is
// recovered into an *abort.PanicError after flushing the trace, so one
// broken policy cannot take the whole experiment down.
func SimulateWithFaults(c *degradation.Cost, solo func(job.ProcID) float64, machines int,
	arrivals []Arrival, p Policy, obs Observer, plan *FaultPlan) (res *Result, err error) {
	s := NewSystem(c, solo, machines)
	s.met = newOnlineMetrics(obs.Metrics)
	s.trace = obs.Trace
	if plan != nil {
		s.faults = newFaultState(plan, machines, c.Batch.NumProcs())
	}
	b := c.Batch
	arrivalTime := make(map[job.JobID]float64, len(arrivals))
	for i, a := range arrivals {
		if i > 0 && a.Time < arrivals[i-1].Time {
			return nil, fmt.Errorf("online: arrivals not time-sorted")
		}
		if _, dup := arrivalTime[a.Job]; dup {
			return nil, fmt.Errorf("online: job %d arrives twice", a.Job)
		}
		arrivalTime[a.Job] = a.Time
	}
	if len(arrivalTime) != len(b.Jobs) {
		return nil, fmt.Errorf("online: %d arrivals for %d jobs", len(arrivalTime), len(b.Jobs))
	}
	s.arrivedAt = arrivalTime
	defer func() {
		if r := recover(); r != nil {
			s.trace.Flush() //nolint:errcheck // keep the partial trace
			res, err = nil, abort.Recovered(r)
		}
	}()
	s.trace.Emit(telemetry.Event{
		Ev: "solve_start", N: b.NumProcs(), U: b.Cores, Method: "online:" + p.Name(),
	})

	next := 0
	for len(s.finished) < len(b.Jobs) {
		// Advance to the earliest of: the next arrival, the earliest
		// completion at current speeds, the next scheduled machine
		// fault, and the queue head's backoff expiry. Arrivals win ties.
		dt, anyRunning := s.timeToNextCompletion()
		tComp := math.Inf(1)
		if anyRunning {
			tComp = s.now + dt
		}
		tArr := math.Inf(1)
		if next < len(arrivals) {
			tArr = arrivals[next].Time
		}
		tFault := s.faults.nextFaultTime()
		tRetry := s.nextRetryTime()

		switch {
		case tArr <= tComp && tArr <= tFault && tArr <= tRetry:
			s.progress(tArr - s.now)
			s.now = tArr
			s.queue = append(s.queue, arrivals[next].Job)
			if s.met != nil {
				s.met.queued.Add(1)
			}
			s.trace.Emit(telemetry.Event{Ev: "arrival", Job: int(arrivals[next].Job) + 1, T: s.now})
			next++
		case tFault <= tComp && tFault <= tRetry && !math.IsInf(tFault, 1):
			s.progress(tFault - s.now)
			s.now = tFault
			s.applyFaults()
		case tRetry <= tComp && !math.IsInf(tRetry, 1):
			// The backoff expired; drainQueue below retries the head.
			s.progress(tRetry - s.now)
			s.now = tRetry
		case anyRunning:
			s.progress(dt)
			s.now = tComp
			s.reap(arrivalTime)
		default:
			return nil, fmt.Errorf("online: deadlock — queue %v cannot be placed", s.queue)
		}
		if s.met != nil {
			s.met.events.Add(1)
		}
		s.drainQueue(p)
	}

	res = &Result{Policy: p.Name(), JobFinish: s.finished}
	var sum float64
	// Sum in job order, not map order, so the mean is bit-identical
	// across runs of the same plan.
	for jid := range b.Jobs {
		t := s.finished[job.JobID(jid)]
		if t > res.Makespan {
			res.Makespan = t
		}
		sum += t - arrivalTime[job.JobID(jid)]
	}
	res.MeanTurnaround = sum / float64(len(s.finished))
	s.trace.Emit(telemetry.Event{Ev: "solution", Cost: res.Makespan, T: s.now})
	s.trace.Flush() //nolint:errcheck // the trace is best-effort
	return res, nil
}

// drainQueue tries to place queued jobs in FIFO order; a job that cannot
// be placed blocks the ones behind it (no backfilling — conservative).
func (s *System) drainQueue(p Policy) {
	for len(s.queue) > 0 {
		j := s.queue[0]
		// A job backing off after a transient placement failure blocks
		// the queue until its retry time (conservative FIFO, as below).
		if s.faults != nil {
			if t, ok := s.faults.retryAt[j]; ok && t > s.now {
				return
			}
		}
		placement, err := p.Place(s, j)
		if err != nil {
			return
		}
		procs := s.Cost.Batch.Jobs[j].Procs
		if len(placement) != len(procs) {
			return
		}
		// validate capacity
		need := map[int]int{}
		for _, m := range placement {
			need[m]++
		}
		for m, k := range need {
			if m < 0 || m >= s.Machines || s.Free(m) < k {
				return
			}
		}
		// Inject a transient placement failure: the placement was
		// feasible, but the machinery (not the policy) failed. The job
		// stays at the head and retries after an exponential backoff.
		if s.faults != nil && s.faults.failPlace(j) {
			delay := s.faults.backoff(s.faults.placeFails[j])
			s.faults.retryAt[j] = s.now + delay
			if s.met != nil {
				s.met.placeFailures.Add(1)
			}
			s.trace.Emit(telemetry.Event{
				Ev: "place_fail", Job: int(j) + 1, T: s.now,
				Reason: "transient", Delay: delay,
			})
			return
		}
		for i, pid := range procs {
			m := placement[i]
			s.perMachine[m] = append(s.perMachine[m], pid)
			s.machineOf[int(pid)-1] = m
			// NaN means never placed; anything else is the remaining
			// work an eviction preserved, which the re-place resumes.
			if math.IsNaN(s.remaining[int(pid)-1]) {
				s.remaining[int(pid)-1] = s.Solo(pid)
			}
		}
		delay := 0.0
		if at, ok := s.arrivedAt[j]; ok {
			delay = s.now - at
		}
		if s.met != nil {
			s.met.placements.Add(1)
			s.met.placementDelay.Observe(delay)
		}
		if s.trace.On() {
			s.trace.Emit(telemetry.Event{
				Ev: "place", Job: int(j) + 1, T: s.now,
				Machines: append([]int(nil), placement...), Delay: delay,
			})
		}
		s.queue = s.queue[1:]
	}
	if s.met != nil {
		s.met.queueLen.Set(int64(len(s.queue)))
	}
}

// speed returns the instantaneous execution rate of a running process.
func (s *System) speed(pid job.ProcID) float64 {
	m := s.machineOf[int(pid)-1]
	var others [16]job.ProcID
	co := others[:0]
	for _, q := range s.perMachine[m] {
		if q != pid {
			co = append(co, q)
		}
	}
	d := s.Cost.ProcCost(pid, co)
	if s.faults != nil && s.faults.noise != nil {
		// The perturbed oracle: the simulator believes a systematically
		// wrong contention estimate for this process.
		d *= s.faults.noise[int(pid)-1]
	}
	return 1 / (1 + d)
}

// timeToNextCompletion returns the wall-clock time until the earliest
// running process finishes at current speeds.
func (s *System) timeToNextCompletion() (float64, bool) {
	best := math.Inf(1)
	any := false
	for m := range s.perMachine {
		for _, pid := range s.perMachine[m] {
			t := s.remaining[int(pid)-1] / s.speed(pid)
			if t < best {
				best = t
			}
			any = true
		}
	}
	return best, any
}

// progress advances every running process by dt wall-clock at current
// speeds.
func (s *System) progress(dt float64) {
	if dt <= 0 {
		return
	}
	updates := int64(0)
	for m := range s.perMachine {
		for _, pid := range s.perMachine[m] {
			s.remaining[int(pid)-1] -= dt * s.speed(pid)
			updates++
		}
	}
	if s.met != nil {
		// Each running process had its instantaneous speed recomputed for
		// this event interval: the churn Eq. 1/9 imposes on the simulator.
		s.met.speedUpdates.Add(updates)
	}
}

// reap removes finished processes and records job completions.
func (s *System) reap(arrivalTime map[job.JobID]float64) {
	b := s.Cost.Batch
	for m := range s.perMachine {
		kept := s.perMachine[m][:0]
		for _, pid := range s.perMachine[m] {
			if s.remaining[int(pid)-1] > 1e-9 {
				kept = append(kept, pid)
				continue
			}
			s.remaining[int(pid)-1] = 0
			s.machineOf[int(pid)-1] = -1
		}
		s.perMachine[m] = kept
	}
	// a job finishes when all its processes are done
	for ji := range b.Jobs {
		j := &b.Jobs[ji]
		if _, done := s.finished[j.ID]; done {
			continue
		}
		all := true
		for _, pid := range j.Procs {
			if s.remaining[int(pid)-1] != 0 || math.IsNaN(s.remaining[int(pid)-1]) {
				all = false
				break
			}
		}
		if all {
			s.finished[j.ID] = s.now
			s.trace.Emit(telemetry.Event{Ev: "job_done", Job: int(j.ID) + 1, T: s.now})
		}
	}
	_ = arrivalTime
}

// totalFree returns the cluster's idle core count.
func (s *System) totalFree() int {
	free := 0
	for m := range s.perMachine {
		free += s.Free(m)
	}
	return free
}

// sortMachinesByFree returns machine indices, most-idle first (stable).
func (s *System) sortMachinesByFree() []int {
	idx := make([]int, s.Machines)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Free(idx[a]) > s.Free(idx[b]) })
	return idx
}
