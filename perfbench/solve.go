package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cosched"
)

// solverSpec is a closed-loop solver workload: one caller cycles a fixed
// instance set in a fixed order, rebuilding each instance per solve so
// its oracle memo starts cold, as it does for a library user.
type solverSpec struct {
	build    func(seed int64) (*cosched.Instance, error)
	opts     cosched.Options
	cores    int
	measured []int64 // instance seeds of the timed cycle, in order
	warmup   []int64 // instance seeds solved during set-up only
	refs     map[int64]float64
	// condenses and trims say whether the workload can condense (needs
	// parallel jobs) or trim a beam (HA* above 40 jobs); elsewhere those
	// counters are 0 by construction, so they are reported only where
	// they can move.
	condenses, trims bool
}

// Set sizes. A solve-exact cycle is 40 OA* solves (about 5 s), a
// solve-large cycle 12 HA* solves (about 5 s); each run repeats whole
// cycles, so every instance weighs the same in every figure. Large sets
// keep a run's figures close to the population's, whichever instances
// the seed draws. The warm-up instances are the same for every seed, so
// set-up does the same work on every run; there are enough of them (about
// 0.4 s of OA*, 0.7 s of HA*) that one set-up spans more than a moment of
// the machine's wandering speed.
const (
	exactPool     = 48 // instances pinned in exact_refs.txt
	exactSetSize  = 40
	exactWarmups  = 4
	largeSetSize  = 12
	largeN        = 240
	largeWarmup   = 1 << 40 // first instance seed of the solve-large warm-ups; never drawn by largeSpec
	largeWarmups  = 2
	setupRepeats  = 9
	exactTotal    = 16
	exactParallel = 6
	exactPerJob   = 2
)

// exactSpec draws the solve-exact set from the pinned brute-force pool:
// the last exactWarmups pool instances are the set-up warm-up, and the
// workload seed picks which of the others run and in what order.
func exactSpec(seed int64) (*solverSpec, error) {
	refs, err := exactRefs()
	if err != nil {
		return nil, err
	}
	pool := make([]int64, exactPool)
	for i := range pool {
		pool[i] = int64(i) + 1
		if _, ok := refs[pool[i]]; !ok {
			return nil, fmt.Errorf("exact_refs.txt has no cost for instance %d", pool[i])
		}
	}
	draw := pool[:exactPool-exactWarmups]
	measured := make([]int64, exactSetSize)
	for i, k := range rand.New(rand.NewSource(seed)).Perm(len(draw))[:exactSetSize] {
		measured[i] = draw[k]
	}
	return &solverSpec{
		build: func(s int64) (*cosched.Instance, error) {
			return cosched.SyntheticMixed(exactTotal, exactParallel, exactPerJob, cosched.QuadCore, s)
		},
		opts:      cosched.Options{Method: cosched.MethodOAStar, Parallelism: 1},
		cores:     cosched.QuadCore.Cores(),
		measured:  measured,
		warmup:    pool[len(draw):],
		refs:      refs,
		condenses: true,
	}, nil
}

// largeSpec draws the solve-large set: distinct instance seeds from the
// workload seed, HA* with its large-batch defaults.
func largeSpec(seed int64) *solverSpec {
	warmup := make([]int64, largeWarmups)
	for i := range warmup {
		warmup[i] = largeWarmup + int64(i)
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	var seeds []int64
	for len(seeds) < largeSetSize {
		s := rng.Int63n(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	return &solverSpec{
		build: func(s int64) (*cosched.Instance, error) {
			return cosched.SyntheticLarge(largeN, cosched.QuadCore, s)
		},
		opts:     cosched.Options{Method: cosched.MethodHAStar, Parallelism: 1},
		cores:    cosched.QuadCore.Cores(),
		measured: seeds,
		warmup:   warmup,
		trims:    true,
	}
}

// ref returns the pinned optimum of an instance, NaN when none is known.
func (sp *solverSpec) ref(seed int64) float64 {
	if c, ok := sp.refs[seed]; ok {
		return c
	}
	return math.NaN()
}

// setCounts are the search counters summed over one pass of the set.
// With Parallelism 1 the search is deterministic, so they repeat exactly
// for a given workload seed.
type setCounts struct {
	expanded, generated, dismissed, beamTrimmed, condensed int64
	elemAllocated, elemReused                              int64
	maxQueue, keyTable                                     int
	avgDegradation                                         float64
}

// solverRun accumulates one run's observations.
type solverRun struct {
	sp       *solverSpec
	lat      dist
	build    dist
	fp       dist
	phases   map[string]float64 // summed phase durations, ms
	expanded int64
	ops      int
	failed   int
	firstErr error
	counts   setCounts
	fps      map[int64]string
	cpu      time.Duration // process CPU time spent inside ops
	alloc    uint64        // bytes allocated inside ops
	gcs      uint32        // GC cycles completed inside ops
}

// op is one library call sequence: build the instance, fingerprint it,
// solve it. It starts from a freshly collected heap, so the GC work an op
// pays depends on that op alone, not on what ran before it. Checks run
// after the timed part. Spans go to tr when it is not nil; they are
// recorded after the timed part too, and the time they take is charged
// to tr.
func (r *solverRun) op(ctx context.Context, tr *tracer, id int64, seed int64, firstCycle bool) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	inst, err := r.sp.build(seed)
	t1 := time.Now()
	var fp string
	var s *cosched.Schedule
	if err == nil {
		fp, err = inst.Fingerprint()
	}
	t2 := time.Now()
	if err == nil {
		s, err = cosched.SolveContext(ctx, inst, r.sp.opts)
	}
	t3 := time.Now()
	r.cpu += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	r.alloc += m1.TotalAlloc - m0.TotalAlloc
	r.gcs += m1.NumGC - m0.NumGC
	r.ops++
	if err == nil {
		err = checkSchedule(inst, r.sp.cores, s, r.sp.ref(seed))
	}
	if err == nil {
		if prev, ok := r.fps[seed]; ok && prev != fp {
			err = fmt.Errorf("fingerprint of seed %d changed between rebuilds", seed)
		}
		r.fps[seed] = fp
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("instance %d: %w", seed, err)
		}
		return
	}
	r.lat = append(r.lat, ms(t3.Sub(t0)))
	r.build = append(r.build, ms(t1.Sub(t0)))
	r.fp = append(r.fp, ms(t2.Sub(t1)))
	st := &s.Stats
	r.expanded += st.Expanded
	for _, p := range st.Phases {
		r.phases[p.Name] += ms(p.Duration)
	}
	if firstCycle {
		c := &r.counts
		c.expanded += st.Expanded
		c.generated += st.Generated
		c.dismissed += st.Dismissed + st.DismissedWorse
		c.beamTrimmed += st.BeamTrimmed
		c.condensed += st.Condensed
		c.elemAllocated += st.ElemAllocated
		c.elemReused += st.ElemReused
		c.maxQueue = max(c.maxQueue, st.MaxQueue)
		c.keyTable = max(c.keyTable, st.KeyTableEntries)
		c.avgDegradation += s.AvgDegradation() / float64(len(r.sp.measured))
	}
	if tr != nil {
		ts := time.Now()
		root := tr.add(id, -1, "op", t0, t3)
		tr.add(id, root, "build", t0, t1)
		tr.add(id, root, "fingerprint", t1, t2)
		solve := tr.add(id, root, "solve", t2, t3)
		at := t2
		for _, p := range st.Phases {
			tr.add(id, solve, p.Name, at, at.Add(p.Duration))
			at = at.Add(p.Duration)
		}
		tr.charge(ts, t3.Sub(t0))
	}
}

// setup is the work a user pays before steady state: generating the
// instance set and one warm-up pass over instances outside it. It
// returns the wall time, and counts failed warm-up answers into r.
func (r *solverRun) setup(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	for _, seed := range r.sp.measured {
		if _, err := r.sp.build(seed); err != nil {
			return 0, fmt.Errorf("build instance %d: %w", seed, err)
		}
	}
	for _, seed := range r.sp.warmup {
		inst, err := r.sp.build(seed)
		if err != nil {
			return 0, fmt.Errorf("build warm-up instance %d: %w", seed, err)
		}
		s, err := cosched.SolveContext(ctx, inst, r.sp.opts)
		if err == nil {
			err = checkSchedule(inst, r.sp.cores, s, r.sp.ref(seed))
		}
		if err != nil {
			return 0, fmt.Errorf("warm-up instance %d: %w", seed, err)
		}
	}
	return time.Since(start), nil
}

// runSolver runs a closed-loop solver workload for about seconds of
// measured time: whole cycles over the instance set for as long as
// another cycle fits. With a tracer, every op records spans.
//
// Set-up runs setupRepeats times: once before the first op, then spread
// evenly between the ops. The machine's speed wanders over seconds, so
// set-ups run back to back would sample one moment of it; spread out,
// their median samples the same stretch as the ops. Set-up time is not
// measured time.
func runSolver(sp *solverSpec, seconds float64, tr *tracer) (*report, error) {
	ctx := context.Background()
	r := &solverRun{sp: sp, phases: map[string]float64{}, fps: map[int64]string{}}
	var setups []float64
	var inSetup time.Duration
	setup := func() error {
		s0 := time.Now()
		runtime.GC() // every set-up starts from the same heap
		d, err := r.setup(ctx)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		inSetup += time.Since(s0)
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	measured := func() time.Duration { return time.Since(start) - inSetup }
	var lastCycle time.Duration
	cycles := 0
	var id int64
	for cycles == 0 || measured()+lastCycle <= budget {
		cs := measured()
		for _, seed := range sp.measured {
			if len(setups) < setupRepeats && measured() >= time.Duration(len(setups))*budget/setupRepeats {
				if err := setup(); err != nil {
					return nil, err
				}
			}
			r.op(ctx, tr, id, seed, cycles == 0)
			id++
		}
		lastCycle = measured() - cs
		cycles++
	}
	wall := measured()
	for len(setups) < setupRepeats {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	rep := &report{attempted: int64(r.ops), failed: int64(r.failed), firstErr: r.firstErr}
	n := float64(r.ops)
	cpuMS, allocMB, gcs := ms(r.cpu)/n, float64(r.alloc)/(1<<20)/n, float64(r.gcs)/n
	ok := len(r.lat)
	rep.e2e = []sample{
		{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB", N: 1},
		{Name: "avg_degradation", Value: r.counts.avgDegradation, Unit: "ratio", N: len(sp.measured)},
		r.lat.pctSample("latency_ms_p50", "ms", 0.5),
		r.lat.pctSample("latency_ms_p80", "ms", 0.8),
		{Name: "cpu_ms_per_op", Value: cpuMS, Unit: "ms", N: r.ops},
	}
	rep.extra = []sample{
		r.lat.pctSample("latency_ms_p90", "ms", 0.9),
		{Name: "solves_per_s", Value: float64(ok) / wall.Seconds(), Unit: "1/s", N: ok},
		{Name: "error_rate", Value: float64(r.failed) / float64(r.ops), Unit: "ratio", N: r.ops},
		{Name: "cycles", Value: float64(cycles), Unit: "count"},
		{Name: "measured_s", Value: wall.Seconds(), Unit: "s"},
	}
	c := r.counts
	search := r.phases["search"] / 1000
	perSolve := func(name string) sample {
		return sample{Name: "phase." + name + "_ms", Value: r.phases[name] / float64(ok), Unit: "ms", N: ok}
	}
	rep.layer = []sample{
		{Name: "cosched.build_ms", Value: r.build.mean(), Unit: "ms", N: ok},
		{Name: "cosched.fingerprint_ms", Value: r.fp.mean(), Unit: "ms", N: ok},
		perSolve("oracle"), perSolve("graph"), perSolve("prepare"), perSolve("search"),
		{Name: "astar.expanded", Value: float64(c.expanded), Unit: "count", N: len(sp.measured)},
		{Name: "astar.generated", Value: float64(c.generated), Unit: "count", N: len(sp.measured)},
		{Name: "astar.dismissed", Value: float64(c.dismissed), Unit: "count", N: len(sp.measured)},
		{Name: "astar.expanded_per_s", Value: float64(r.expanded) / search, Unit: "1/s", N: ok},
		{Name: "astar.useful_ratio", Value: ratio(c.expanded, c.generated), Unit: "ratio", N: len(sp.measured)},
		{Name: "astar.elem_reuse_ratio", Value: ratio(c.elemReused, c.elemReused+c.elemAllocated), Unit: "ratio", N: len(sp.measured)},
		{Name: "astar.max_queue", Value: float64(c.maxQueue), Unit: "count", N: len(sp.measured)},
		{Name: "astar.keytable_entries", Value: float64(c.keyTable), Unit: "count", N: len(sp.measured)},
		{Name: "go.alloc_mb_per_op", Value: allocMB, Unit: "MB", N: r.ops},
		{Name: "go.gc_cycles_per_op", Value: gcs, Unit: "count", N: r.ops},
	}
	if sp.condenses {
		rep.extra = append(rep.extra, sample{Name: "astar.condensed", Value: float64(c.condensed), Unit: "count", N: len(sp.measured)})
	}
	if sp.trims {
		rep.extra = append(rep.extra, sample{Name: "astar.beam_trimmed", Value: float64(c.beamTrimmed), Unit: "count", N: len(sp.measured)})
	}
	rep.counts = map[string]float64{
		"astar.expanded": float64(c.expanded), "astar.generated": float64(c.generated),
		"astar.dismissed": float64(c.dismissed), "avg_degradation": c.avgDegradation,
	}
	rep.instances = sp.measured
	return rep, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
