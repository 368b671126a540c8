package astar

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosched/internal/abort"
	"cosched/internal/degradation"
	"cosched/internal/job"
	"cosched/internal/telemetry"
)

// This file is the parallel best-first engine: N expansion workers over
// a fingerprint-sharded frontier. Each worker owns a subset of the
// shards (per-shard heaps behind per-shard locks — there is no global
// heap mutex), pops the cheapest element it can see, and steals from the
// globally cheapest shard when its own run dry, so the expansion order
// stays cost-anchored even though it is no longer serial. Every child
// passes the sequential search's own admission (admitChild, admit.go)
// against the shared striped table and incumbent. Every worker polls
// the one abort check on every loop iteration, MemoryBudget included:
// the footprint estimate is read from shared atomics, and a breach
// aborts the whole solve with the best incumbent (abort.Memory), as in
// the sequential pop loop, overshooting the budget by at most one
// expansion per worker.
//
// Correctness model: the engine only runs configurations whose answer is
// order-independent — an admissible heuristic (every h but HPerProcAvg;
// each reads only tables prepare built) at effective weight 1, with
// exact dismissal (see eligibleParallelism).
// The trimmed candidate graph is a pure function of each element's
// process set, dismissal is the same Theorem-1 rule against one shared
// (striped) best-g table, and pruning only ever discards children that
// provably cannot beat an already-achieved bound; so whatever order
// workers expand in, the cheapest complete schedule they can prove has
// the same cost as the sequential solver's, bit for bit. Expansion
// counts, dismissal counts and which of several equal-cost optima is
// returned may differ — the admission invariant (Generated == Expanded
// + Dismissed + InFrontier) still holds for every run.
const (
	// maxParallelism caps Options.Parallelism.
	maxParallelism = 64
	// specEps is the tolerance above the global frontier minimum within
	// which a pop still counts as on-frontier; anything above it is a
	// speculative expansion (Stats.Speculative).
	specEps = 1e-12
)

// frontierShard is one heap of the sharded frontier. topF mirrors the
// heap minimum (Float64bits, +Inf when empty) so workers and the
// termination check can scan shard minima without taking locks.
type frontierShard struct {
	mu   sync.Mutex
	pq   pqueue
	seq  int64
	topF atomic.Uint64
	_    [24]byte // keep neighbouring shard locks off one cache line
}

// refreshTop republishes the heap minimum; callers hold mu.
func (sh *frontierShard) refreshTop() {
	if len(sh.pq) == 0 {
		sh.topF.Store(math.Float64bits(math.Inf(1)))
	} else {
		sh.topF.Store(math.Float64bits(sh.pq[0].f))
	}
}

// parEngine is the shared state of one parallel solve.
type parEngine struct {
	s       *Solver
	workers []*Solver // workers[0] is s itself; the rest are clones
	shards  []*frontierShard
	table   *stripedTable
	inc     *incumbent

	// Termination protocol (HDA*-style double check): inflight is
	// claimed under the shard lock before a pop publishes its new shard
	// minimum, pushes counts admissions; a worker may conclude the
	// search only after seeing inflight == 0, scanning every shard
	// minimum, and re-reading inflight and pushes unchanged.
	inflight atomic.Int64
	pushes   atomic.Int64
	done     atomic.Bool
	aborted  atomic.Uint32 // abort.Reason; 0 = running

	// Search counters (Stats snapshot lives here during the solve). A
	// worker folds its admission counters in once per expansion.
	visited, expanded, generated   atomic.Int64
	dismissedStale, dismissedWorse atomic.Int64
	pruned, condensed              atomic.Int64
	frontierSize, maxQueue         atomic.Int64
	qMax                           atomic.Int64
	steals, speculative            atomic.Int64

	// allocElems is the shared fresh-allocation counter every worker
	// pool bumps, the element term of memSample.
	allocElems atomic.Int64

	// trMu serializes the tracer's events (its sink sees one ordered
	// stream, and its per-solve state is not goroutine-safe); unused
	// when no tracer is attached.
	trMu   sync.Mutex
	tr     *EventTracer
	doneCh <-chan struct{}
}

// eligibleParallelism resolves Options.Parallelism for the best-first
// path: the worker count to run, or 1 when the configuration cannot be
// parallelised without changing the answer: an inadmissible or weighted
// heuristic, whose incumbent cannot prune exactly (pruneExact), and
// set-keyed dismissal under Eq. 13's per-job maxima, where which
// same-set sub-path survives depends on expansion order (DESIGN.md §5a).
func (s *Solver) eligibleParallelism() int {
	p := min(s.opts.Parallelism, maxParallelism)
	if p <= 1 || !s.pruneExact {
		return 1
	}
	if len(s.parJobs) > 0 && s.cost.Mode != degradation.ModeSE && !s.opts.ExactParallel {
		return 1
	}
	return p
}

// workerClone returns a Solver sharing every read-only table of s
// (graph, Cost and its node memo, level table, heuristic floors, key
// geometry) but
// owning its own element pool and scratch, so an expansion worker can
// run makeChild/forEachCandidate/heuristic without touching another
// worker's buffers.
func (s *Solver) workerClone() *Solver {
	c := new(Solver)
	*c = *s
	c.table = nil
	c.pool = s.newPool() // registered on s for end-of-solve stats
	c.allPools = nil
	c.scr = scratch{}
	c.prepDur = 0
	c.parClones = nil
	return c
}

// ensureClones grows the persistent worker-clone set to p-1 entries
// (worker 0 is the solver itself), reusing warm pools across solves.
func (s *Solver) ensureClones(p int) []*Solver {
	for len(s.parClones) < p-1 {
		s.parClones = append(s.parClones, s.workerClone())
	}
	workers := make([]*Solver, p)
	workers[0] = s
	copy(workers[1:], s.parClones)
	return workers
}

// shardCount picks a power-of-two shard count of at least 4 per worker
// (steals stay rare) within [8, 256].
func shardCount(p int) int {
	n := 8
	for n < 4*p && n < 256 {
		n *= 2
	}
	return n
}

// solveParallel runs the sharded-frontier engine with p >= 2 workers.
func (s *Solver) solveParallel(p int) (*Result, error) {
	start := time.Now()
	var stats Stats
	stats.Parallelism = p
	tr := s.opts.Tracer
	met := newSolverMetrics(s.opts.Metrics)
	pmet := newParallelMetrics(s.opts.Metrics)
	prog := s.progressReporter()

	workers := s.ensureClones(p)
	s.table = nil // stats come from the striped table this solve
	met.begin(s)
	stats.PrepareDuration = s.prepDur
	s.prepDur = 0
	tr.SolveStart(s.n, s.u, s.searchMethod(), p)

	nShards := shardCount(p)
	en := &parEngine{
		s:       s,
		workers: workers,
		shards:  make([]*frontierShard, nShards),
		table:   newStripedTable(s.keyStride, nShards),
		inc:     s.newIncumbent(),
		tr:      tr,
		doneCh:  s.abortDone(),
	}
	for i := range en.shards {
		en.shards[i] = &frontierShard{}
		en.shards[i].refreshTop()
	}
	var seedAlloc int64
	for _, pl := range s.allPools {
		seedAlloc += pl.gets - pl.reuse
		pl.allocCount = &en.allocElems
	}
	en.allocElems.Store(seedAlloc)

	root := s.rootElement()
	en.table.admit(root, -1)
	en.push(root, 0)

	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(id int) {
			defer wg.Done()
			en.run(id)
		}(i)
	}

	// The coordinator waits out the workers, flushing metrics and
	// progress on a coarse tick (the workers never touch the registry
	// delta state, which is not goroutine-safe).
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	tick := time.NewTicker(50 * time.Millisecond)
	for running := true; running; {
		select {
		case <-joined:
			running = false
		case <-tick.C:
			en.snapshot(&stats)
			frontier := int(en.frontierSize.Load())
			qMax := int(en.qMax.Load())
			en.trMu.Lock()
			s.maybeProgress(prog, &stats, frontier, qMax, start)
			en.trMu.Unlock()
			met.flush(&stats, frontier, qMax/s.u, nil, time.Since(start))
			pmet.flush(en)
		}
	}
	tick.Stop()

	en.snapshot(&stats)
	stats.KeyTableEntries = en.table.count()
	stats.KeyTableLoad = en.table.loadAvg()
	defer func() {
		met.flush(&stats, int(en.frontierSize.Load()), int(en.qMax.Load())/s.u, nil, time.Since(start))
		pmet.flush(en)
		met.finish(&stats)
	}()

	if r := abort.Reason(en.aborted.Load()); r != abort.None {
		inFrontier := en.frontierSize.Load()
		if stats.VisitedPaths == 0 {
			inFrontier-- // the never-Generated root is still queued
		}
		groups, cost := en.inc.best()
		return s.finishAbort(r, &stats, inFrontier, groups, cost, start, met)
	}

	stats.InFrontier = en.frontierSize.Load()
	stats.Duration = time.Since(start)
	s.fillAllocStats(&stats)
	groups, cost := en.inc.best()
	if groups == nil {
		return nil, errors.New("astar: priority list exhausted without a complete schedule")
	}
	tr.Finish(&stats, cost, groups)
	return &Result{Groups: groups, Cost: cost, Stats: stats}, nil
}

// run is one expansion worker's main loop.
func (en *parEngine) run(id int) {
	w := en.workers[id]
	idle := 0
	for {
		if en.done.Load() || en.aborted.Load() != 0 {
			return
		}
		if r := en.s.pollAbort(en.doneCh, en.visited.Load(), en.memSample()); r != abort.None {
			en.aborted.CompareAndSwap(0, uint32(r))
			return
		}
		e, stolen := en.popBest(id)
		if e == nil {
			if en.tryTerminate() {
				en.done.Store(true)
				return
			}
			// Empty-handed but the search is live (another worker is
			// mid-expansion, or everything visible is bound-blocked):
			// back off briefly. Gosched first so single-P schedulers
			// (GOMAXPROCS=1) cannot livelock a spinning idler against
			// the worker holding the frontier.
			idle++
			if idle < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		if stolen {
			en.steals.Add(1)
		}
		en.expandElement(w, e)
		en.inflight.Add(-1)
	}
}

// memSample is the parallel engine's memory sample, read from shared
// atomics only — the worker pools' shared fresh-allocation count, the
// striped table's bytes and the frontier size — so every worker takes
// it on every poll, and a breach, like the expansion cap against the
// shared pop counter, overshoots by at most one expansion per worker;
// 0 while no budget is set.
func (en *parEngine) memSample() int64 {
	if en.s.opts.MemoryBudget <= 0 {
		return 0
	}
	return en.s.footprint(en.allocElems.Load(), en.table.bytes(), en.frontierSize.Load())
}

// shardOf routes a dismissal-key hash to its frontier shard (high hash
// bits, disjoint from both the stripe and the slot-probe bits).
func (en *parEngine) shardOf(h uint64) int {
	return int((h >> 52) & uint64(len(en.shards)-1))
}

// push admits an element into its frontier shard. The pushes counter is
// bumped first: the termination double-check relies on every admission
// being counted before it becomes scannable.
func (en *parEngine) push(e *element, f float64) {
	en.pushes.Add(1)
	cur := en.frontierSize.Add(1)
	for {
		m := en.maxQueue.Load()
		if cur <= m || en.maxQueue.CompareAndSwap(m, cur) {
			break
		}
	}
	sh := en.shards[en.shardOf(e.hash)]
	sh.mu.Lock()
	sh.seq++
	sh.pq.push(heapEntry{f: f, g: e.g, seq: sh.seq, e: e})
	sh.refreshTop()
	sh.mu.Unlock()
}

// popBest pops the cheapest poppable element visible to worker id:
// first among the shards it owns (index ≡ id mod P), then — stealing —
// from the globally cheapest shard. Elements whose f has reached the
// incumbent bound are never popped: they provably cannot improve the
// answer and stay queued, preserving the sequential InFrontier
// semantics. Returns nil when nothing poppable is visible.
func (en *parEngine) popBest(id int) (*element, bool) {
	ub := en.inc.bound()
	best, bestF := -1, math.Inf(1)
	for si := id; si < len(en.shards); si += len(en.workers) {
		if f := math.Float64frombits(en.shards[si].topF.Load()); f < bestF {
			best, bestF = si, f
		}
	}
	stolen := false
	if best < 0 || bestF >= ub {
		best, bestF = -1, math.Inf(1)
		for si := range en.shards {
			if f := math.Float64frombits(en.shards[si].topF.Load()); f < bestF {
				best, bestF = si, f
			}
		}
		if best < 0 || bestF >= ub {
			return nil, false
		}
		stolen = best%len(en.workers) != id
	}
	w := en.workers[id]
	sh := en.shards[best]
	sh.mu.Lock()
	for len(sh.pq) > 0 {
		if sh.pq[0].f >= en.inc.bound() {
			break // bound-blocked: cannot improve, stays in frontier
		}
		// Claim the element before its removal is published: the
		// termination scan must never see "all shards empty" while a
		// popped element is between pop and expansion.
		en.inflight.Add(1)
		e := sh.pq.pop().e
		sh.refreshTop()
		if en.table.stale(e) {
			// Stale: superseded by a cheaper same-key sub-path while
			// queued. Recycle into the popping worker's pool — get()
			// re-homes it there.
			en.inflight.Add(-1)
			en.frontierSize.Add(-1)
			en.dismissedStale.Add(1)
			en.traceDismiss(e.q, e.g, DismissStale)
			w.pool.put(e)
			continue
		}
		sh.mu.Unlock()
		en.frontierSize.Add(-1)
		return e, stolen
	}
	sh.mu.Unlock()
	return nil, false
}

// tryTerminate implements the double-check termination protocol: the
// search is over once no element is in flight and no scannable shard
// minimum is below the incumbent bound, with the in-flight and push
// counters unchanged across the scan (a push during the scan, or a
// worker between claim and finish, forces a retry).
func (en *parEngine) tryTerminate() bool {
	p0 := en.pushes.Load()
	if en.inflight.Load() != 0 {
		return false
	}
	minF := math.Inf(1)
	for _, sh := range en.shards {
		if f := math.Float64frombits(sh.topF.Load()); f < minF {
			minF = f
		}
	}
	if en.inflight.Load() != 0 {
		return false
	}
	if en.pushes.Load() != p0 {
		return false
	}
	return minF >= en.inc.bound()
}

// expandElement runs one expansion on worker w: the expand event, the
// speculation accounting, candidate generation and child admission
// through admitChild, pushing each admitted child onto its shard.
func (en *parEngine) expandElement(w *Solver, e *element) {
	popIdx := en.visited.Add(1)
	if e.q > 0 {
		en.expanded.Add(1)
		for {
			q := en.qMax.Load()
			if int64(e.q) <= q || en.qMax.CompareAndSwap(q, int64(e.q)) {
				break
			}
		}
	}
	leader := e.set.SmallestAbsent(w.n)
	if en.tr != nil {
		en.trMu.Lock()
		en.tr.Expand(popIdx, e.q/w.u, e.g, e.h, job.ProcID(leader))
		en.trMu.Unlock()
	}
	if leader == 0 {
		// Unreachable: a complete child was offered to the incumbent when
		// it was admitted, so its f never passes the pop gate.
		return
	}
	if gmin := en.globalMinF(); e.g+e.h > gmin+specEps {
		// This element's f is above the best still-queued f: a
		// sequential search would have expanded that one first. The
		// expansion is speculative — harmless, because its children
		// re-enter through the shared best-g table and are superseded
		// if a cheaper route arrives.
		en.speculative.Add(1)
	}
	avail := w.available(e, job.ProcID(leader))
	var local Stats
	w.forEachCandidate(e, job.ProcID(leader), avail, &local, func(node []job.ProcID, costs []float64) {
		child := w.makeChild(e, node, costs)
		f, r, ok := w.admitChild(en.table, en.inc, child, &local)
		if !ok {
			en.traceDismiss(child.q, child.g, r)
			w.recycle(child)
			return
		}
		en.push(child, f)
	})
	en.generated.Add(local.Generated)
	en.dismissedWorse.Add(local.DismissedWorse)
	en.pruned.Add(local.Pruned)
	en.condensed.Add(local.Condensed)
}

// globalMinF scans the shard minima for the cheapest queued f.
func (en *parEngine) globalMinF() float64 {
	minF := math.Inf(1)
	for _, sh := range en.shards {
		if f := math.Float64frombits(sh.topF.Load()); f < minF {
			minF = f
		}
	}
	return minF
}

// traceDismiss forwards a dismissal to the tracer under trMu. The
// pop index attributes the child to the most recently counted expansion
// — with concurrent workers exact attribution is meaningless, and trace
// consumers only reconcile totals.
func (en *parEngine) traceDismiss(q int, g float64, r DismissReason) {
	if en.tr == nil {
		return
	}
	pop := en.visited.Load()
	en.trMu.Lock()
	en.tr.Dismiss(pop, q, g, r)
	en.trMu.Unlock()
}

// snapshot copies the engine's atomic counters into st (coordinator
// flushes and the final stats).
func (en *parEngine) snapshot(st *Stats) {
	st.VisitedPaths = en.visited.Load()
	st.Expanded = en.expanded.Load()
	st.Generated = en.generated.Load()
	st.Dismissed = en.dismissedStale.Load()
	st.DismissedWorse = en.dismissedWorse.Load()
	st.Pruned = en.pruned.Load()
	st.Condensed = en.condensed.Load()
	st.MaxQueue = int(en.maxQueue.Load())
	st.Steals = en.steals.Load()
	st.Speculative = en.speculative.Load()
}

// parallelMetrics is the astar.parallel.* handle set, the parallel
// engine's addition to the DESIGN.md §6 catalogue: steal and
// speculation counters and worker, shard-count and deepest-shard
// gauges. Flushed by the coordinator only (the delta state is not
// goroutine-safe, like solverMetrics).
type parallelMetrics struct {
	steals, speculative *telemetry.Counter
	workers, shards     *telemetry.Gauge
	shardDepth          *telemetry.Gauge
	last                struct{ steals, spec int64 }
}

// newParallelMetrics resolves the astar.parallel.* handles, or nil when
// telemetry is disabled.
func newParallelMetrics(r *telemetry.Registry) *parallelMetrics {
	if r == nil {
		return nil
	}
	return &parallelMetrics{
		steals:      r.Counter("astar.parallel.steals"),
		speculative: r.Counter("astar.parallel.speculative"),
		workers:     r.Gauge("astar.parallel.workers"),
		shards:      r.Gauge("astar.parallel.shards"),
		shardDepth:  r.Gauge("astar.parallel.shard_depth_max"),
	}
}

// flush folds counter deltas into the registry and refreshes the
// gauges, including the deepest shard heap (briefly locking each shard;
// the coordinator runs this a few times per second at most).
func (m *parallelMetrics) flush(en *parEngine) {
	if m == nil {
		return
	}
	steals, spec := en.steals.Load(), en.speculative.Load()
	m.steals.Add(steals - m.last.steals)
	m.speculative.Add(spec - m.last.spec)
	m.last.steals, m.last.spec = steals, spec
	m.workers.Set(int64(len(en.workers)))
	m.shards.Set(int64(len(en.shards)))
	deepest := 0
	for _, sh := range en.shards {
		sh.mu.Lock()
		if len(sh.pq) > deepest {
			deepest = len(sh.pq)
		}
		sh.mu.Unlock()
	}
	m.shardDepth.Set(int64(deepest))
}
