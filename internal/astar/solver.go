package astar

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cosched/internal/abort"
	"cosched/internal/bitset"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
)

// Solver runs OA*/HA* searches over one co-scheduling graph. A Solver is
// not safe for concurrent use; build one per goroutine (they share the
// graph's Cost, and with it the node memo, safely).
type Solver struct {
	gr   *graph.Graph
	cost *degradation.Cost
	opts Options
	n, u int

	// Parallel-job bookkeeping: parJobs lists PE/PC jobs, procPar maps
	// process -> dense parallel-job index (-1 for serial/imaginary).
	parJobs []job.JobID
	procPar []int

	// levels is the graph's level table (graph.LevelTable) when the
	// search walks whole levels of a graph of at most
	// graph.LevelTableMax nodes, every level within its enumeration
	// budget; nil otherwise. Built in prepare and read-only after, so
	// worker clones share it.
	levels *graph.LevelTable

	// dminAll[p-1] is an admissible per-process cost floor: p's exact
	// least cost over every node of the level table where there is one;
	// otherwise the sum of its u-1 cheapest pair costs for additive
	// oracles, its cheapest single pair for the rest.
	dminAll []float64
	// dminSerial is dminAll for serial processes and 0 for parallel
	// ones (their cost enters through per-job maxima instead).
	dminSerial []float64
	hSerialAll float64 // sum of dminSerial over all processes

	// What Strategies 1 and 2 read on an all-serial batch, built once in
	// prepare (prepareLevelBounds) and read-only after, so worker clones
	// share them: levelSums[l][i] sums, ascending, the i smallest node
	// weights of levels l+1..n-u+1, for i up to n/u (Strategy 1);
	// levelMin[l] bounds level l's least node weight from below, and
	// levelOrder ranks the leaders 1..n-u+1 by (levelMin, leader)
	// (Strategy 2).
	levelSums  [][]float64
	levelMin   []float64
	levelOrder []job.ProcID

	// pairW[i][j] is the symmetric pair cost m[i][j]+m[j][i] when the
	// oracle is additive-pairwise and the batch is all-serial; nil
	// otherwise. Enables the pairwise candidate generators (expand.go)
	// that rank a level's nodes without weighing all of them.
	pairW [][]float64
	// pairMin[p-1] is the smallest entry of pairW's row p off the
	// diagonal (0 when the row has none): the anchored generator's lower
	// bound on the pair cost any other process adds against p.
	pairMin []float64
	// pairM is the raw interference matrix behind pairW, letting the
	// hot child-extension path bypass the node memo.
	pairM [][]float64

	// PE-symmetry canonicalisation (active with Condense): processes of
	// an embarrassingly-parallel job are interchangeable, so dismissal
	// keys replace their identities with per-job counts. peAll masks all
	// PE processes; peJobMask holds one mask per PE job. peGroup[p-1] is
	// the index in peJobMask of process p's mask, -1 outside them.
	peAll     *bitset.Set
	peJobMask []*bitset.Set
	peGroup   []int32

	// Word-packed dismissal-key geometry (see keytable.go): the key is
	// keyStride uint64 words — the (masked) set words, the packed PE
	// counts, and, under ExactParallel, one word per parallel job.
	keySetWords   int
	keyCountWords int
	keyJobWords   int
	keyStride     int

	// hw is the effective h weight (HWeight, at least 1); pruneExact is
	// whether incumbent pruning is sound: f never overestimates, that
	// is, an admissible h at weight 1. An inadmissible or weighted search
	// keeps the incumbent purely as a fallback answer.
	hw         float64
	pruneExact bool

	// Hot-path storage, reused across expansions within one solve: the
	// best-g table, the element free lists (one per producing goroutine),
	// and the working buffers in scr.
	table    *gTable
	pool     *elemPool
	allPools []*elemPool
	scr      scratch

	// prepDur is the NewSolver heuristic-precomputation time, consumed
	// (reported and zeroed) by the first Solve call's telemetry.
	prepDur time.Duration

	// parClones are the per-worker shallow solver copies of the parallel
	// best-first engine, created on first parallel solve and reused (warm
	// pools and scratch) by every later one.
	parClones []*Solver
}

// scratch is one solver's working storage, grown on demand and reused
// from one call to the next: nothing a caller is handed from it survives
// the next call. A worker clone starts from the zero value, so no two
// goroutines ever share a buffer.
type scratch struct {
	avail    []job.ProcID // available's result
	costs    []float64    // nodeCosts' member costs
	greedyNd []job.ProcID // greedySchedule's node under construction
	greedyCd []job.ProcID // greedySchedule's candidate scratch (never aliases greedyNd)

	// Candidate generation (expand.go). flat, w and idx are a node store
	// (u-stride), its weights and a heap over its slots: the pairwise
	// level walk's k-slot heap, or the non-pairwise fallback's whole
	// level (a solver only ever takes one of the two). pos, pre and mins
	// are the pairwise level walk's view positions, prefix weights,
	// prefix row-minimum sums and prefix walker masks, and rowMins its
	// row minima over the walked view.
	flat    []job.ProcID
	w       []float64
	idx     []int32
	pos     []int
	pre     []float64
	mins    []float64
	pmask   []uint64
	rowMins rowMins
	// Leader orders (leaderView): orders[l-1] ranks every process but l
	// by (pair cost with l, ID), built the first time l leads a pairwise
	// expansion and kept for the solver's life. mark stamps one
	// expansion's availability with epoch; view and viewCost are that
	// availability in its leader's order and the leader's pair costs.
	orders   [][]uint16
	mark     []uint32
	epoch    uint32
	view     []job.ProcID
	viewCost []float64
	// The anchored generator's per-position pair-cost accumulator and
	// anchor stamp, and word-packed node dedup.
	acc    []float64
	stamp  []int32
	seen   *wordSet
	keyBuf []uint64
	// node is the node under construction (every generator); leaf is a
	// sorted copy of a complete one (the pairwise walk's leaves, the
	// class enumeration's emitted nodes).
	node []job.ProcID
	leaf []job.ProcID
	// share is the beam depth's candidate sharing (share.go) over
	// shareParents, the parents a parallel beam generator expands; chain
	// holds the view positions of a shared anchored node's members.
	share        depthShare
	shareParents []*element
	chain        []int32
	// condSeen dedups one expansion's condensation keys (§III-E),
	// packed into condKeyBuf by graph.AppendCondenseKey.
	condSeen   *wordSet
	condKeyBuf []uint64
	// The level-table walk (levelCandidates): walkPos holds the members'
	// positions in the availability, rank[i] the table index of the
	// node's first i+1 members, and classMark stamps a level-table class
	// with classEpoch once one expansion has attempted it.
	walkPos    []int
	rank       []int
	classMark  []uint32
	classEpoch uint32
	// Class enumeration (classes.go): groupClass maps a symmetry group
	// to its class in this expansion, and classEnd ends each class's run
	// of members in classMem.
	groupClass []int32
	classEnd   []int32
	classMem   []job.ProcID

	// beamNext and beamF hold one beam depth's survivors and their f
	// values (beam.go).
	beamNext []*element
	beamF    []float64
}

// element is one priority-list entry: a sub-path recorded as the set of
// processes it contains (§III-C1). Elements come from elemPool free lists
// (pool.go) with all backing storage preallocated at solver capacities.
type element struct {
	set      *bitset.Set
	keyWords []uint64 // word-packed dismissal key (keytable.go layout)
	hash     uint64   // hashKeyWords(keyWords), for every table and shard
	keyRef   int32    // gTable entry index once admitted; -1 before
	stripe   int32    // stripedTable stripe of keyRef (parallel solves); -1 before
	q        int      // processes scheduled
	g        float64  // Eq. 13 distance of the sub-path
	h        float64
	hSerial  float64   // remaining per-process serial bound (HPerProc)
	jobMax   []float64 // per parallel job: running max degradation
	parent   *element
	node     []job.ProcID // the node whose addition created this element
	home     *elemPool    // owning free list
}

type heapEntry struct {
	f, g float64
	seq  int64
	e    *element
}

// pqueue is a hand-rolled binary min-heap over heapEntry. container/heap
// boxes every Push/Pop through interface{}, heap-allocating one 48-byte
// entry per generated child; inlining the sift loops keeps the priority
// list entirely inside one growing slice.
type pqueue []heapEntry

func (q pqueue) less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	if q[i].g != q[j].g {
		return q[i].g > q[j].g // deeper paths first among equals
	}
	return q[i].seq < q[j].seq
}

func (q *pqueue) push(e heapEntry) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *pqueue) pop() heapEntry {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = heapEntry{} // release the element pointer
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && h.less(r, l) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// NewSolver builds a solver for the given graph and options.
func NewSolver(g *graph.Graph, opts Options) (*Solver, error) {
	s := &Solver{
		gr:   g,
		cost: g.Cost,
		opts: opts,
		n:    g.N(),
		u:    g.U(),
	}
	if s.n == 0 || s.n%s.u != 0 {
		return nil, fmt.Errorf("astar: %d processes not schedulable on %d-core machines", s.n, s.u)
	}
	b := g.Batch
	s.procPar = make([]int, s.n)
	for i := range s.procPar {
		s.procPar[i] = -1
	}
	for _, jid := range b.ParallelJobs() {
		idx := len(s.parJobs)
		s.parJobs = append(s.parJobs, jid)
		for _, p := range b.Jobs[jid].Procs {
			s.procPar[int(p)-1] = idx
		}
	}
	prepStart := time.Now()
	if err := s.prepare(); err != nil {
		return nil, err
	}
	s.prepDur = time.Since(prepStart)
	return s, nil
}

// prepare precomputes the heuristic tables the selected strategy needs.
func (s *Solver) prepare() error {
	if err := s.validateAvgUse(); err != nil {
		return err
	}
	s.pairW = s.pairWeights()
	if s.opts.H == HPerProcAvg {
		s.computeAvgEstimates()
	}
	// Strategy 1 merges sorted node weights across whole levels, so
	// every level must be enumerable; level 1 is the largest.
	if s.opts.H == HStrategy1 && !s.gr.LevelEnumerable(1) {
		return errors.New("astar: level 1 too large for h strategy 1 (use strategy 2 or perproc)")
	}
	if s.opts.KPerLevel > 0 && s.pairW == nil {
		// HA* without the pairwise fast path must enumerate levels.
		if graph.Binomial(s.n-1, s.u-1) > int64(graph.DefaultEnumLimit) {
			return fmt.Errorf("astar: HA* needs enumerable levels or an additive pairwise oracle at n=%d u=%d", s.n, s.u)
		}
	}
	if s.opts.Condense {
		b := s.gr.Batch
		for _, jid := range b.ParallelJobs() {
			if !s.symmetricJob(b.Jobs[jid].Kind) {
				continue
			}
			if s.peAll == nil {
				s.peAll = bitset.New(s.n)
			}
			jm := bitset.New(s.n)
			for _, p := range b.Jobs[jid].Procs {
				jm.Add(int(p))
				s.peAll.Add(int(p))
			}
			s.peJobMask = append(s.peJobMask, jm)
		}
		// Padding processes are interchangeable too: zero degradation,
		// no identity. They form one more symmetry class.
		var im *bitset.Set
		for i := range b.Procs {
			if b.Procs[i].Imaginary {
				if im == nil {
					im = bitset.New(s.n)
				}
				im.Add(int(b.Procs[i].ID))
			}
		}
		if im != nil {
			if s.peAll == nil {
				s.peAll = bitset.New(s.n)
			}
			for i := range b.Procs {
				if b.Procs[i].Imaginary {
					s.peAll.Add(int(b.Procs[i].ID))
				}
			}
			s.peJobMask = append(s.peJobMask, im)
		}
		if s.peAll != nil {
			s.peGroup = make([]int32, s.n)
			for p := 1; p <= s.n; p++ {
				s.peGroup[p-1] = -1
				for g, jm := range s.peJobMask {
					if jm.Has(p) {
						s.peGroup[p-1] = int32(g)
					}
				}
			}
		}
	}
	// A search that attempts every node of a level (OA*, O-SVP) reads a
	// small graph's nodes from its level table, unless PE classes are
	// enumerated instead or the pairwise fast path weighs nodes from the
	// matrix (its floors are already exact, and nothing condenses). The
	// build polls the context: cut short, it leaves the keyed path to a
	// search whose first poll then aborts.
	if s.opts.KPerLevel <= 0 && s.peAll == nil && s.pairM == nil {
		s.levels = graph.NewLevelTable(s.gr, s.opts.Condense && len(s.parJobs) > 0, s.abortDone())
	}
	// The floors are read by the per-process bound, which strategies 1
	// and 2 return on batches with parallel jobs; on all-serial batches
	// the two read level statistics instead.
	levelH := s.opts.H == HStrategy1 || s.opts.H == HStrategy2
	if s.opts.H == HPerProc || levelH && len(s.parJobs) > 0 {
		s.computeDmin()
	} else if levelH {
		s.prepareLevelBounds()
	}
	s.keySetWords = (s.n + 64) / 64
	s.keyCountWords = (len(s.peJobMask) + 7) / 8
	if s.opts.ExactParallel && len(s.parJobs) > 0 {
		s.keyJobWords = len(s.parJobs)
	}
	s.keyStride = s.keySetWords + s.keyCountWords + s.keyJobWords
	s.hw = max(s.opts.HWeight, 1)
	s.pruneExact = s.opts.H != HPerProcAvg && s.opts.HWeight <= 1
	s.pool = s.newPool()
	return nil
}

// symmetricJob reports whether the ranks of a parallel job of this kind
// are interchangeable under the active cost mode: PE ranks always are
// (identical profiles, no communication); PC ranks are too when the mode
// ignores communication (ModeSE/ModePE), since nothing then distinguishes
// one rank from another.
func (s *Solver) symmetricJob(k job.Kind) bool {
	if k == job.PE {
		return true
	}
	return k == job.PC && s.cost.Mode != degradation.ModePC
}

// elementKey builds the legacy string dismissal key for a process set:
// the raw set, or — when PE symmetry canonicalisation is active — the set
// with PE processes replaced by per-job counts, collapsing equivalent
// rank permutations into one sub-path family.
//
// The hot path no longer uses strings: packKey (keytable.go) produces the
// word-packed equivalent. This function is kept as the readable reference
// semantics; the property test in keytable_test.go pins the two to
// collide and order identically.
func (s *Solver) elementKey(set *bitset.Set) string {
	if s.peAll == nil {
		return set.Key()
	}
	key := set.KeyMasked(s.peAll)
	counts := make([]byte, len(s.peJobMask))
	for i, jm := range s.peJobMask {
		counts[i] = byte(set.IntersectCount(jm))
	}
	return key + string(counts)
}

// computeDmin fills the per-process admissible cost floors. With a level
// table a process's floor is its least cost over every node of the table:
// the exact minimum over its placements. Otherwise they come from pair
// degradations: for additive-pairwise oracles the sum of the u-1 cheapest
// pair degradations (exact additivity), for general monotone oracles the
// single cheapest pair (d(p,S) >= min_q d(p,{q}) because co-runners never
// help; Eq. 9's communication term breaks that premise, DESIGN.md §5a).
func (s *Solver) computeDmin() {
	s.dminAll = make([]float64, s.n)
	s.dminSerial = make([]float64, s.n)
	b := s.gr.Batch
	var row []float64
	for p := 1; p <= s.n; p++ {
		if b.Procs[p-1].Imaginary {
			continue
		}
		var bound float64
		if s.levels != nil {
			bound = s.levels.Floor(job.ProcID(p))
		} else {
			row = row[:0]
			for q := 1; q <= s.n; q++ {
				if q != p {
					row = append(row, s.cost.ProcCost(job.ProcID(p), []job.ProcID{job.ProcID(q)}))
				}
			}
			if len(row) > 0 {
				sort.Float64s(row)
				if s.pairW != nil {
					for i := 0; i < s.u-1 && i < len(row); i++ {
						bound += row[i]
					}
				} else {
					bound = row[0]
				}
			}
		}
		s.dminAll[p-1] = bound
		if s.procPar[p-1] < 0 || s.cost.Mode == degradation.ModeSE {
			// Under SE accounting every process contributes to the sum
			// directly, so parallel processes get per-process floors
			// too (their per-job-max treatment only applies to the
			// other modes).
			s.dminSerial[p-1] = bound
			s.hSerialAll += bound
		}
	}
}

// Solve runs the search and returns the best schedule it can prove (the
// optimal one for OA*; the trimmed-search result for HA*). With
// BeamWidth set it runs the layered beam search instead.
func (s *Solver) Solve() (*Result, error) {
	if s.opts.BeamWidth > 0 {
		return s.solveBeam()
	}
	if p := s.eligibleParallelism(); p > 1 {
		return s.solveParallel(p)
	}
	start := time.Now()
	var stats Stats
	stats.Parallelism = 1
	var pq pqueue
	qMax := 0
	tr := s.opts.Tracer
	met := newSolverMetrics(s.opts.Metrics)
	prog := s.progressReporter()
	met.begin(s)
	stats.PrepareDuration = s.prepDur
	s.prepDur = 0
	tr.SolveStart(s.n, s.u, s.searchMethod(), 1)
	// The deferred flush publishes final (or, on aborted solves, partial)
	// counters whatever the return path.
	defer func() {
		met.flush(&stats, len(pq), qMax/s.u, s.table, time.Since(start))
		met.finish(&stats)
	}()
	inc := s.newIncumbent()
	s.table = newGTable(s.keyStride)
	root := s.rootElement()
	s.table.admit(root, -1)
	var seq int64
	pq.push(heapEntry{f: 0, g: 0, seq: seq, e: root})
	seq++
	done := s.abortDone()

	for len(pq) > 0 {
		// Abort conditions are polled before the pop so an aborted trace
		// stays invariant-clean: every counted pop keeps its expand
		// event, and len(pq) is the exact admission-identity frontier —
		// except before the very first pop, when the never-Generated
		// root is still queued and must not count as in-frontier.
		if reason := s.pollAbort(done, stats.VisitedPaths, s.memSample(stats.VisitedPaths, len(pq))); reason != abort.None {
			inFrontier := int64(len(pq))
			if stats.VisitedPaths == 0 {
				inFrontier--
			}
			groups, cost := inc.best()
			return s.finishAbort(reason, &stats, inFrontier, groups, cost, start, met)
		}
		if len(pq) > stats.MaxQueue {
			stats.MaxQueue = len(pq)
		}
		ent := pq.pop()
		e := ent.e
		if s.table.stale(e) {
			// Superseded by a shorter same-set sub-path. It was never
			// expanded, so nothing references it and it can be recycled.
			stats.Dismissed++
			if tr != nil {
				tr.Dismiss(stats.VisitedPaths, e.q, e.g, DismissStale)
			}
			s.recycle(e)
			continue
		}
		stats.VisitedPaths++
		if e.q > 0 {
			stats.Expanded++
			if e.q > qMax {
				qMax = e.q
			}
		}
		if stats.VisitedPaths&255 == 0 {
			s.maybeProgress(prog, &stats, len(pq), qMax, start)
			if stats.VisitedPaths&(flushEvery-1) == 0 {
				met.flush(&stats, len(pq), qMax/s.u, s.table, time.Since(start))
			}
		}
		leader := e.set.SmallestAbsent(s.n)
		if tr != nil {
			tr.Expand(stats.VisitedPaths, e.q/s.u, e.g, e.h, job.ProcID(leader))
		}
		if leader == 0 {
			// The goal was offered to the incumbent when it was admitted.
			// It answers unless the incumbent is strictly cheaper, which
			// only a search that cannot prune exactly allows.
			groups, cost := inc.best()
			if e.g <= cost {
				groups, cost = reconstruct(e), e.g
			}
			stats.InFrontier = int64(len(pq))
			stats.Duration = time.Since(start)
			s.fillAllocStats(&stats)
			tr.Finish(&stats, cost, groups)
			return &Result{Groups: groups, Cost: cost, Stats: stats}, nil
		}
		avail := s.available(e, job.ProcID(leader))
		s.forEachCandidate(e, job.ProcID(leader), avail, &stats, func(node []job.ProcID, costs []float64) {
			child := s.makeChild(e, node, costs)
			f, r, ok := s.admitChild(s.table, inc, child, &stats)
			if !ok {
				if tr != nil {
					tr.Dismiss(stats.VisitedPaths, child.q, child.g, r)
				}
				s.recycle(child)
				return
			}
			pq.push(heapEntry{f: f, g: child.g, seq: seq, e: child})
			seq++
		})
	}
	// Exhausted queue: fall back to the incumbent. The trace still ends
	// with stats + solution events so offline analysis (coschedtrace
	// check) can account for fully-drained searches too.
	stats.Duration = time.Since(start)
	s.fillAllocStats(&stats)
	groups, cost := inc.best()
	tr.Finish(&stats, cost, groups)
	if groups == nil {
		return nil, errors.New("astar: priority list exhausted without a complete schedule")
	}
	return &Result{Groups: groups, Cost: cost, Stats: stats}, nil
}

// rootElement builds the empty sub-path from the solver's pool.
func (s *Solver) rootElement() *element {
	root := s.pool.get()
	root.set.Clear()
	root.hSerial = s.hSerialAll
	root.node = root.node[:0]
	if len(s.parJobs) > 0 {
		root.jobMax = root.jobMax[:0]
		for range s.parJobs {
			root.jobMax = append(root.jobMax, 0)
		}
	} else {
		root.jobMax = nil
	}
	s.setKey(root)
	return root
}

// available lists the unscheduled processes excluding the leader. The
// returned slice is the solver's scratch buffer, valid until the next
// call (each expansion consumes it before the next begins).
func (s *Solver) available(e *element, leader job.ProcID) []job.ProcID {
	avail := s.scr.avail[:0]
	e.set.ForEachAbsent(s.n, func(v int) bool {
		if job.ProcID(v) != leader {
			avail = append(avail, job.ProcID(v))
		}
		return true
	})
	s.scr.avail = avail
	return avail
}

// nodeCosts returns the effective degradation of each member of node
// against the rest, in node order, from the Cost's node memo. The slice
// is the solver's scratch, valid until the next call.
func (s *Solver) nodeCosts(node []job.ProcID) []float64 {
	s.scr.costs = s.cost.NodeCosts(s.scr.costs[:0], node)
	return s.scr.costs
}

// makeChild extends a sub-path with one node, maintaining the Eq. 13
// distance and the per-parallel-job maxima incrementally. costs are the
// node's members' costs in node order when the caller has them (the
// level table's); nil reads them from the pair matrix or the node memo.
// The child comes from the solver's own free list (a worker clone's,
// under parallel search) and touches no heap once the list is warm.
func (s *Solver) makeChild(e *element, node []job.ProcID, costs []float64) *element {
	child := s.pool.get()
	child.set.CopyFrom(e.set)
	child.q = e.q + len(node)
	child.g = e.g
	child.hSerial = e.hSerial
	child.parent = e
	child.node = append(child.node[:0], node...)
	if len(s.parJobs) > 0 {
		child.jobMax = append(child.jobMax[:0], e.jobMax...)
	} else {
		child.jobMax = nil
	}
	if costs == nil && s.pairM == nil {
		costs = s.nodeCosts(node)
	}
	for i, p := range node {
		child.set.Add(int(p))
		var d float64
		if s.pairM != nil {
			row := s.pairM[int(p)-1]
			for j, q := range node {
				if j != i {
					d += row[int(q)-1]
				}
			}
		} else {
			d = costs[i]
		}
		pi := s.procPar[int(p)-1]
		if s.cost.Mode == degradation.ModeSE || pi < 0 {
			child.g += d
			if s.dminSerial != nil {
				child.hSerial -= s.dminSerial[int(p)-1]
			}
			continue
		}
		if d > child.jobMax[pi] {
			child.g += d - child.jobMax[pi]
			child.jobMax[pi] = d
		}
	}
	s.setKey(child)
	return child
}

// setKey packs e's dismissal key and hashes it, once for every table and
// shard the element is routed through.
func (s *Solver) setKey(e *element) {
	e.keyWords = s.packKey(e.keyWords[:0], e.set, e.jobMax)
	e.hash = hashKeyWords(e.keyWords)
}

// jobMaxKey encodes the per-job maxima into the legacy string dismissal
// key for ExactParallel mode. Like elementKey it survives only as the
// reference semantics the word-packed keys are property-tested against.
func jobMaxKey(jm []float64) string {
	b := make([]byte, 0, 8*len(jm))
	for _, v := range jm {
		u := math.Float64bits(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

// reconstruct walks parent pointers back to the root, copying each node
// out of its pool-owned element so the returned schedule owns its memory
// (the winning path is the only storage a solve pins).
func reconstruct(e *element) [][]job.ProcID {
	var rev [][]job.ProcID
	for cur := e; cur != nil && len(cur.node) > 0; cur = cur.parent {
		rev = append(rev, append([]job.ProcID(nil), cur.node...))
	}
	groups := make([][]job.ProcID, len(rev))
	for i := range rev {
		groups[i] = rev[len(rev)-1-i]
	}
	return groups
}

// greedySchedule builds a quick feasible schedule for the incumbent
// bound: repeatedly fill the machine led by the smallest unscheduled
// process with the locally cheapest companions.
//
// Candidate nodes are assembled in a dedicated scratch buffer (greedyCd)
// that is copied from — never append-extended off — the node under
// construction: the previous `cand := append(node, …)` formulation let
// cand share node's backing array between NodeWeight calls, so any callee
// retaining or the surrounding loop growing the node would silently
// corrupt earlier candidates (regression-tested in
// TestGreedyScheduleScratchIsolation).
func (s *Solver) greedySchedule() [][]job.ProcID {
	set := bitset.New(s.n)
	if cap(s.scr.greedyNd) < s.u {
		s.scr.greedyNd = make([]job.ProcID, 0, s.u)
		s.scr.greedyCd = make([]job.ProcID, 0, s.u)
	}
	var groups [][]job.ProcID
	for {
		leader := set.SmallestAbsent(s.n)
		if leader == 0 {
			return groups
		}
		node := append(s.scr.greedyNd[:0], job.ProcID(leader))
		set.Add(leader)
		for len(node) < s.u {
			bestP := 0
			bestW := math.Inf(1)
			set.ForEachAbsent(s.n, func(v int) bool {
				cand := append(s.scr.greedyCd[:0], node...)
				cand = append(cand, job.ProcID(v))
				if w := s.cost.NodeWeight(cand); w < bestW {
					bestW, bestP = w, v
				}
				return true
			})
			if bestP == 0 {
				return nil // not enough processes left: malformed batch
			}
			node = append(node, job.ProcID(bestP))
			set.Add(bestP)
		}
		groups = append(groups, job.SortedProcIDs(node))
	}
}
