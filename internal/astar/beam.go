package astar

import (
	"errors"
	"sync"
	"time"

	"cosched/internal/abort"
	"cosched/internal/graph"
	"cosched/internal/job"
)

// solveBeam runs a layered beam search over the trimmed co-scheduling
// graph: the frontier advances one machine (path depth) at a time,
// keeping at each depth the BeamWidth sub-paths with the smallest
// g + HWeight·h. Work and memory are strictly bounded by
// BeamWidth × KPerLevel per layer and (n/u) layers, which is what lets
// the thousand-process HA* runs of Figs. 12-13 finish; the price is that
// — unlike the priority-list search — a dropped sub-path can never be
// revisited.
//
// Per-depth best-by-key dedup runs on the same word-packed gTable as the
// priority-list search (reset between depths), with superseded and
// beam-trimmed children — which have no descendants yet — recycled into
// the element pool. The depth's survivors are ordered by (f, key) with
// the key compared byte-lexicographically (compareKeyWords), preserving
// the legacy string-key tie-break bit for bit. Only the BeamWidth kept
// elements are sorted: a BeamWidth-slot heap picks them from the depth
// table (beamSelect), and the rest are trimmed as the heap passes them.
//
// With Options.Parallelism > 1 each depth's child generation (candidate
// enumeration, oracle queries, heuristics — all the expensive work) fans
// out over worker clones, while the admission merge that follows replays
// the sequential order exactly; results, stats and trace events are
// therefore bit-identical to the sequential beam search (see
// beamGenerate).
func (s *Solver) solveBeam() (*Result, error) {
	start := time.Now()
	var stats Stats
	var frontier []*element
	qMax := 0
	tr := s.opts.Tracer
	met := newSolverMetrics(s.opts.Metrics)
	prog := s.progressReporter()
	met.begin(s)
	stats.PrepareDuration = s.prepDur
	s.prepDur = 0
	bp := s.beamParallelism()
	stats.Parallelism = bp
	var genWorkers []*Solver
	var gens [][]*element
	if bp > 1 {
		genWorkers = s.ensureClones(bp)
	}
	tr.SolveStart(s.n, s.u, s.searchMethod(), bp)
	defer func() {
		met.flush(&stats, len(frontier), qMax/s.u, s.table, time.Since(start))
		met.finish(&stats)
	}()
	s.table = newGTable(s.keyStride)
	root := s.rootElement()
	done := s.abortDone()

	frontier = []*element{root}
	depths := s.n / s.u
	for d := 0; d < depths; d++ {
		t := s.table
		t.reset()
		if k := s.opts.KPerLevel; k > 0 {
			// Room up front for every child the depth can admit spares
			// the table's arenas append's many small steps, whose
			// garbage every solve would carry.
			n := s.depthRoom(frontier, k)
			t.keys, t.gs, t.elems = reserve(t.keys, n*t.stride), reserve(t.gs, n), reserve(t.elems, n)
		}
		if bp > 1 {
			gens = make([][]*element, len(frontier))
			s.beamGenerate(genWorkers, frontier, gens, &stats, done)
		} else {
			s.shareDepth(frontier)
		}
		for idx, e := range frontier {
			// Polled before the element is counted, so an aborted
			// trace's admission identity reconciles: this depth's
			// survivors (t.count) plus the frontier elements not yet
			// expanded (q > 0 excludes the depth-0 root, which was
			// never Generated) are exactly the in-frontier population.
			if reason := s.pollAbort(done, stats.VisitedPaths, s.memSample(stats.VisitedPaths, len(frontier))); reason != abort.None {
				// Pre-generated children of unmerged elements were
				// never admitted; return them to their pools.
				if bp > 1 {
					for _, kids := range gens[idx:] {
						for _, child := range kids {
							s.recycle(child)
						}
					}
				}
				inFrontier := int64(t.count)
				for _, rest := range frontier[idx:] {
					if rest.q > 0 {
						inFrontier++
					}
				}
				return s.finishAbort(reason, &stats, inFrontier, nil, 0, start, met)
			}
			stats.VisitedPaths++
			if e.q > 0 {
				stats.Expanded++
				if e.q > qMax {
					qMax = e.q
				}
			}
			leader := e.set.SmallestAbsent(s.n)
			if tr != nil {
				tr.Expand(stats.VisitedPaths, e.q/s.u, e.g, e.h, job.ProcID(leader))
			}
			if leader == 0 {
				continue
			}
			admitBeam := func(child *element) {
				ref := t.find(child.keyWords, child.hash)
				if ref >= 0 && t.gs[ref] <= child.g {
					stats.DismissedWorse++
					if tr != nil {
						tr.Dismiss(stats.VisitedPaths, child.q, child.g, DismissWorse)
					}
					s.recycle(child)
					return
				}
				if bp == 1 {
					// The parallel generators precompute h; the serial
					// path spends it only on children that survive the
					// worse-check above.
					child.h = s.heuristic(child)
				}
				if ref >= 0 {
					// The superseded same-key child was generated this
					// depth and never expanded; recycle it.
					stats.Dismissed++
					if tr != nil {
						tr.Dismiss(stats.VisitedPaths, t.elems[ref].q, t.gs[ref], DismissStale)
					}
					s.recycle(t.elems[ref])
					t.gs[ref] = child.g
					t.elems[ref] = child
				} else {
					t.insert(child.keyWords, child.hash, child.g, child)
				}
				stats.Generated++
			}
			if bp > 1 {
				// Serial merge of the pre-generated children, in exactly
				// the order the sequential loop would have produced them.
				for _, child := range gens[idx] {
					admitBeam(child)
				}
				gens[idx] = nil
			} else {
				s.depthCandidates(idx, e, job.ProcID(leader), &stats, func(node []job.ProcID, costs []float64) {
					admitBeam(s.makeChild(e, node, costs))
				})
			}
		}
		if t.count == 0 {
			return nil, errors.New("astar: beam search produced no children (malformed batch)")
		}
		next := s.beamSelect(t.elems, s.hw, func(e *element) {
			stats.BeamTrimmed++
			if tr != nil {
				tr.Dismiss(stats.VisitedPaths, e.q, e.g, DismissBeamTrim)
			}
			s.recycle(e) // trimmed before expansion: no descendants
		})
		if len(next) > stats.MaxQueue {
			stats.MaxQueue = len(next)
		}
		frontier = next
		s.maybeProgress(prog, &stats, len(frontier), (d+1)*s.u, start)
		met.flush(&stats, len(frontier), d+1, s.table, time.Since(start))
	}

	best := frontier[0]
	for _, e := range frontier[1:] {
		if e.g < best.g {
			best = e
		}
	}
	stats.InFrontier = int64(len(frontier))
	stats.Duration = time.Since(start)
	s.fillAllocStats(&stats)
	groups := reconstruct(best)
	tr.Finish(&stats, best.g, groups)
	return &Result{Groups: groups, Cost: best.g, Stats: stats}, nil
}

// beamParallelism resolves Options.Parallelism for the beam search: the
// layered structure lets every heuristic parallelise (each reads only
// tables prepare built, and the merge replays sequential admission
// exactly, so even the inadmissible HPerProcAvg estimator stays
// bit-identical), so the request is only capped.
func (s *Solver) beamParallelism() int {
	return max(1, min(s.opts.Parallelism, maxParallelism))
}

// depthRoom bounds the children a beam depth can admit under a budget of
// k: each parent emits at most k nodes, and no more than its level holds,
// C(m, u-1) for its m available processes, or, on an anchored pairwise
// level, one node per anchor. So a budget beyond every level reserves no
// more than that level's nodes.
func (s *Solver) depthRoom(frontier []*element, k int) int {
	room := 0
	for _, e := range frontier {
		m := s.n - e.q - 1
		c := graph.Binomial(m, s.u-1)
		if s.pairW != nil && !s.walksLevel(m, k) {
			c = int64(m)
		}
		room += int(min(int64(k), c))
	}
	return room
}

// beamGenerate fans one depth's child generation over the worker
// clones: worker wi expands frontier elements wi, wi+P, wi+2P, ... into
// gens (children in candidate order, h precomputed), touching only its
// own pool and scratch. No admission state is shared — counting,
// dedup and trace events all happen in the caller's serial merge, which
// is what keeps the parallel beam bit-identical to the sequential one.
// Each generator runs the shared abort poll before every element and
// stops on an abort; it takes no memory sample (the pools are busy), and
// the merge loop re-polls per element, samples memory and settles the
// abort accounting.
func (s *Solver) beamGenerate(workers []*Solver, frontier []*element, gens [][]*element, stats *Stats, done <-chan struct{}) {
	var wg sync.WaitGroup
	condensed := make([]int64, len(workers))
	visited := stats.VisitedPaths // unchanged until the merge runs
	wg.Add(len(workers))
	for wi := range workers {
		go func(wi int) {
			defer wg.Done()
			w := workers[wi]
			var local Stats
			mine := w.scr.shareParents[:0]
			for i := wi; i < len(frontier); i += len(workers) {
				mine = append(mine, frontier[i])
			}
			w.scr.shareParents = mine
			w.shareDepth(mine)
			for j, e := range mine {
				if w.pollAbort(done, visited, 0) != abort.None {
					break
				}
				leader := e.set.SmallestAbsent(w.n)
				if leader == 0 {
					continue
				}
				var kids []*element
				w.depthCandidates(j, e, job.ProcID(leader), &local, func(node []job.ProcID, costs []float64) {
					child := w.makeChild(e, node, costs)
					child.h = w.heuristic(child)
					kids = append(kids, child)
				})
				gens[wi+j*len(workers)] = kids
			}
			condensed[wi] = local.Condensed
		}(wi)
	}
	wg.Wait()
	for _, c := range condensed {
		stats.Condensed += c
	}
}

// beamSelect returns the BeamWidth cheapest of one depth's elements in
// ascending (f, key) order, f = g + hw·h, and hands every other element
// to trim. Keys are unique in a depth table, so that order is total: the
// survivors, and the order they are expanded in, are exactly the first
// BeamWidth of a whole-table sort; only the order trim sees the rest in
// differs. A BeamWidth-slot max-heap in the spent frontier's buffer keeps
// the cheapest elements met so far, and only those are sorted, by
// popping the heap in place. The result is solver scratch, valid until
// the next call.
func (s *Solver) beamSelect(elems []*element, hw float64, trim func(*element)) []*element {
	width := min(s.opts.BeamWidth, len(elems))
	sc := &s.scr
	h := beamHeap{e: append(sc.beamNext[:0], elems[:width]...), f: sc.beamF[:0]}
	for _, e := range h.e {
		h.f = append(h.f, e.g+hw*e.h)
	}
	sc.beamNext, sc.beamF = h.e, h.f
	for i := width/2 - 1; i >= 0; i-- {
		h.down(i, width)
	}
	for _, e := range elems[width:] {
		f := e.g + hw*e.h
		if f > h.f[0] || f == h.f[0] && compareKeyWords(e.keyWords, h.e[0].keyWords) > 0 {
			trim(e)
			continue
		}
		trim(h.e[0])
		h.e[0], h.f[0] = e, f
		h.down(0, width)
	}
	// Each popped greatest lands in the slot the shrinking heap just
	// gave up, leaving the survivors ascending.
	for n := width - 1; n > 0; n-- {
		h.swap(0, n)
		h.down(0, n)
	}
	return h.e
}

// beamHeap is beamSelect's max-heap: elements and their f values in
// parallel slots, the greatest (f, key) on top.
type beamHeap struct {
	e []*element
	f []float64
}

// after reports whether slot i sorts after slot j in (f, key) order.
func (h beamHeap) after(i, j int) bool {
	if h.f[i] != h.f[j] {
		return h.f[i] > h.f[j]
	}
	return compareKeyWords(h.e[i].keyWords, h.e[j].keyWords) > 0
}

func (h beamHeap) swap(i, j int) {
	h.e[i], h.e[j] = h.e[j], h.e[i]
	h.f[i], h.f[j] = h.f[j], h.f[i]
}

// down sifts slot i down within the heap's first n slots.
func (h beamHeap) down(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.after(r, c) {
			c = r
		}
		if !h.after(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}
