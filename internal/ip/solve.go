package ip

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"cosched/internal/abort"
	"cosched/internal/job"
	"cosched/internal/lp"
	"cosched/internal/telemetry"
)

// Stats reports branch-and-bound effort.
type Stats struct {
	// Nodes counts branch-and-bound nodes whose LP relaxation was
	// solved (nodes pruned against the incumbent before relaxation are
	// not counted).
	Nodes int64
	// LPIters is the total simplex pivots across all relaxations.
	LPIters int64
	// BoundImprovements counts incumbent updates: integral LP solutions
	// and rounding-heuristic schedules that beat the previous best.
	BoundImprovements int64
	// Duration is the wall-clock solving time.
	Duration time.Duration
	// Degraded reports that a budget (MaxNodes or a done Ctx) cut the
	// search short: the Result then carries the best incumbent, not a
	// proven optimum. Aborted carries the reason (deadline, cancel,
	// expansions for the node cap).
	Degraded bool
	Aborted  abort.Reason
}

// ipMetrics caches the registry handles of the ip.* metric family.
type ipMetrics struct {
	reg                                           *telemetry.Registry
	solves, nodes, lpIters, improvements, solveNS *telemetry.Counter
	incumbent                                     *telemetry.FloatGauge
	last                                          Stats
}

// ipFlushEvery is the node interval between registry flushes.
const ipFlushEvery = 128

func newIPMetrics(r *telemetry.Registry) *ipMetrics {
	if r == nil {
		return nil
	}
	m := &ipMetrics{
		reg:          r,
		solves:       r.Counter("ip.solves"),
		nodes:        r.Counter("ip.nodes"),
		lpIters:      r.Counter("ip.lp_iters"),
		improvements: r.Counter("ip.bound_improvements"),
		solveNS:      r.Counter("ip.solve_ns"),
		incumbent:    r.FloatGauge("ip.incumbent"),
	}
	m.solves.Add(1)
	return m
}

func (m *ipMetrics) flush(st *Stats, incumbent float64) {
	if m == nil {
		return
	}
	m.nodes.Add(st.Nodes - m.last.Nodes)
	m.lpIters.Add(st.LPIters - m.last.LPIters)
	m.improvements.Add(st.BoundImprovements - m.last.BoundImprovements)
	m.last = *st
	if !math.IsInf(incumbent, 1) {
		m.incumbent.Set(incumbent)
	}
}

func (m *ipMetrics) finish(st *Stats, incumbent float64) {
	if m == nil {
		return
	}
	m.flush(st, incumbent)
	m.solveNS.Add(st.Duration.Nanoseconds())
}

// abortCounter bumps ip.aborts.<reason> — at most once per solve, off
// the per-node path, so the on-demand handle lookup is fine.
func (m *ipMetrics) abortCounter(r abort.Reason) {
	if m == nil {
		return
	}
	m.reg.Counter("ip.aborts." + r.String()).Add(1)
}

// traceFinish closes an IP trace: the final accounting, the solution
// when one exists (a degraded solve repeats its abort reason on it),
// and a sink flush.
func traceFinish(tr telemetry.Emitter, st *Stats, cost float64, groups [][]job.ProcID) {
	if !tr.On() {
		return
	}
	tr.Emit(telemetry.Event{Ev: "stats", Nodes: st.Nodes, LPIters: st.LPIters})
	if groups != nil {
		tr.Emit(telemetry.Event{
			Ev: "solution", Cost: cost, Groups: telemetry.GroupInts(groups), Pop: st.Nodes,
			Reason: st.Aborted.String(),
		})
	}
	tr.Flush() //nolint:errcheck // the trace is best-effort
}

// Result is an exact IP solution, or the best found when a budget cut
// the search short (Stats.Degraded).
type Result struct {
	Groups [][]job.ProcID
	Cost   float64
	Stats  Stats
}

// bbNode is one branch-and-bound node: a set of branching decisions.
type bbNode struct {
	bound  float64
	depth  int
	fixed0 []int // columns forced to 0
	fixed1 []int // columns forced to 1
	seq    int64
}

type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

const intTol = 1e-6

// Solve runs branch-and-bound under the given configuration.
func Solve(m *Model, cfg Config) (*Result, error) {
	start := time.Now()
	var stats Stats

	incumbent := math.Inf(1)
	var incumbentSel []int
	met := newIPMetrics(cfg.Metrics)
	tr := cfg.Trace
	if tr.On() {
		tr.Emit(telemetry.Event{Ev: "solve_start", N: m.Cost.Batch.NumProcs(), Method: "ip:" + cfg.Name})
	}

	var best nodeHeap // best-first frontier
	var stack []*bbNode
	var seq int64
	pushNode := func(nd *bbNode) {
		nd.seq = seq
		seq++
		if cfg.BestFirst {
			heap.Push(&best, nd)
		} else {
			stack = append(stack, nd)
		}
	}
	popNode := func() *bbNode {
		if cfg.BestFirst {
			if best.Len() == 0 {
				return nil
			}
			return heap.Pop(&best).(*bbNode)
		}
		if len(stack) == 0 {
			return nil
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return nd
	}

	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
	aborted := abort.None
	pushNode(&bbNode{bound: math.Inf(-1)})
	for {
		nd := popNode()
		if nd == nil {
			break
		}
		if nd.bound >= incumbent-intTol {
			continue
		}
		if done != nil {
			select {
			case <-done:
				aborted = abort.FromContext(cfg.Ctx)
			default:
			}
			if aborted != abort.None {
				break
			}
		}
		if cfg.MaxNodes > 0 && stats.Nodes >= cfg.MaxNodes {
			aborted = abort.Expansions
			break
		}
		stats.Nodes++
		if stats.Nodes%ipFlushEvery == 0 {
			met.flush(&stats, incumbent)
		}

		sol, err := m.solveRelaxation(nd, cfg)
		if err != nil {
			return nil, err
		}
		stats.LPIters += int64(sol.Iters)
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return nil, fmt.Errorf("ip: relaxation unbounded (model bug)")
		case lp.IterLimit:
			// Treat as unresolved: keep the node's parent bound and
			// branch blindly on the first free column.
		}
		if sol.Status == lp.Optimal {
			if sol.Objective >= incumbent-intTol {
				continue
			}
			frac := fractionalColumn(m, sol.X, cfg)
			if frac < 0 {
				// Integral: a feasible schedule.
				sel := selectedColumns(m, sol.X)
				if sol.Objective < incumbent {
					incumbent = sol.Objective
					incumbentSel = sel
					stats.BoundImprovements++
					tr.Emit(telemetry.Event{Ev: "incumbent", Cost: incumbent, Pop: stats.Nodes})
				}
				continue
			}
			if cfg.Rounding {
				if cost, sel := m.roundingHeuristic(sol.X); cost < incumbent {
					incumbent = cost
					incumbentSel = sel
					stats.BoundImprovements++
					tr.Emit(telemetry.Event{Ev: "incumbent", Cost: incumbent, Pop: stats.Nodes})
				}
			}
			// Branch on the fractional column.
			down := &bbNode{bound: sol.Objective, depth: nd.depth + 1,
				fixed0: append(append([]int(nil), nd.fixed0...), frac),
				fixed1: nd.fixed1}
			up := &bbNode{bound: sol.Objective, depth: nd.depth + 1,
				fixed0: nd.fixed0,
				fixed1: append(append([]int(nil), nd.fixed1...), frac)}
			// Explore the "include" branch first in DFS (it reaches
			// integrality faster on partitioning models).
			pushNode(down)
			pushNode(up)
		}
	}

	stats.Duration = time.Since(start)
	if aborted != abort.None {
		stats.Degraded = true
		stats.Aborted = aborted
		met.abortCounter(aborted)
		tr.Emit(telemetry.Event{Ev: "abort", Pop: stats.Nodes, Reason: aborted.String()})
	}
	met.finish(&stats, incumbent)
	var groups [][]job.ProcID
	var cost float64
	switch {
	case incumbentSel != nil:
		groups = m.Groups(incumbentSel)
	case aborted != abort.None:
		// Aborted before any incumbent: degrade to the trivial
		// sequential partition so the caller still gets a feasible
		// schedule instead of an error.
		groups = sequentialGroups(m)
	}
	if groups != nil {
		cost = m.Cost.PartitionCost(groups)
	}
	traceFinish(tr, &stats, cost, groups)
	if groups == nil {
		return nil, fmt.Errorf("ip: no feasible solution found")
	}
	return &Result{Groups: groups, Cost: cost, Stats: stats}, nil
}

// sequentialGroups builds the trivial u-chunk partition of processes
// 1..n in ID order: the schedule every instance admits, used as the
// degraded fallback when a solve aborts before finding any incumbent.
func sequentialGroups(m *Model) [][]job.ProcID {
	b := m.Cost.Batch
	n, u := b.NumProcs(), b.Cores
	groups := make([][]job.ProcID, 0, n/u)
	for p := 1; p <= n; p += u {
		g := make([]job.ProcID, 0, u)
		for q := p; q < p+u && q <= n; q++ {
			g = append(g, job.ProcID(q))
		}
		groups = append(groups, g)
	}
	return groups
}

// solveRelaxation builds and solves the LP relaxation under the node's
// branching decisions.
func (m *Model) solveRelaxation(nd *bbNode, cfg Config) (*lp.Solution, error) {
	nCols := len(m.Columns)
	p := lp.NewProblem(m.NumVars())
	for ci, col := range m.Columns {
		p.SetObjective(ci, col.SerialCost)
	}
	for yj := range m.ParJobs {
		p.SetObjective(nCols+yj, 1)
	}
	// Partition rows.
	n := m.Cost.Batch.NumProcs()
	for i := 0; i < n; i++ {
		terms := make([]lp.Term, 0, len(m.colsByProc[i]))
		for _, ci := range m.colsByProc[i] {
			terms = append(terms, lp.Term{Var: ci, Coeff: 1})
		}
		p.AddConstraint(terms, lp.EQ, 1)
	}
	// y linking rows: for each parallel process i of job j,
	// Σ_{T∋i} d·z_T - y_j <= 0.
	b := m.Cost.Batch
	for _, jid := range m.ParJobs {
		yIdx := nCols + parIndex(m, jid)
		for _, pid := range b.Jobs[jid].Procs {
			var terms []lp.Term
			for _, ci := range m.colsByProc[int(pid)-1] {
				if d := m.parD(ci, pid); d != 0 {
					terms = append(terms, lp.Term{Var: ci, Coeff: d})
				}
			}
			terms = append(terms, lp.Term{Var: yIdx, Coeff: -1})
			p.AddConstraint(terms, lp.LE, 0)
		}
	}
	// Branching decisions.
	for _, ci := range nd.fixed0 {
		p.AddConstraint([]lp.Term{{Var: ci, Coeff: 1}}, lp.LE, 0)
	}
	for _, ci := range nd.fixed1 {
		p.AddConstraint([]lp.Term{{Var: ci, Coeff: 1}}, lp.GE, 1)
	}
	if cfg.LPIterLimit > 0 {
		p.MaxIters = cfg.LPIterLimit
	}
	return p.Solve()
}

// parIndex returns the dense index of a parallel job.
func parIndex(m *Model, jid job.JobID) int {
	for i, j := range m.ParJobs {
		if j == jid {
			return i
		}
	}
	return -1
}

// parD returns d(i, T\{i}) for process pid in column ci, or 0 if the
// process's contribution is serial-charged.
func (m *Model) parD(ci int, pid job.ProcID) float64 {
	b := m.Cost.Batch
	j := b.JobOf(pid)
	if j == nil {
		return 0
	}
	col := &m.Columns[ci]
	k := 0
	for _, p := range col.Procs {
		pj := b.JobOf(p)
		if pj == nil || pj.Kind == job.Serial {
			continue
		}
		if p == pid {
			return col.parTerms[k].d
		}
		k++
	}
	return 0
}

// fractionalColumn picks the branching column, or -1 when the column part
// of x is integral.
func fractionalColumn(m *Model, x []float64, cfg Config) int {
	nCols := len(m.Columns)
	best := -1
	bestScore := intTol
	for ci := 0; ci < nCols; ci++ {
		f := x[ci]
		frac := math.Min(f, 1-f)
		if frac <= intTol {
			continue
		}
		if !cfg.MostFractional {
			return ci // first-fractional rule
		}
		if frac > bestScore {
			bestScore = frac
			best = ci
		}
	}
	return best
}

// selectedColumns extracts the columns at value 1.
func selectedColumns(m *Model, x []float64) []int {
	var sel []int
	for ci := 0; ci < len(m.Columns); ci++ {
		if x[ci] > 1-intTol {
			sel = append(sel, ci)
		}
	}
	return sel
}

// roundingHeuristic derives a feasible schedule from a fractional LP
// solution: take columns greedily by fractional value, then cover leftover
// processes with arbitrary compatible columns.
func (m *Model) roundingHeuristic(x []float64) (float64, []int) {
	nCols := len(m.Columns)
	order := make([]int, nCols)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return x[order[a]] > x[order[b]] })
	n := m.Cost.Batch.NumProcs()
	used := make([]bool, n+1)
	var sel []int
	covered := 0
	for _, ci := range order {
		if x[ci] < intTol {
			break
		}
		col := &m.Columns[ci]
		ok := true
		for _, p := range col.Procs {
			if used[p] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, p := range col.Procs {
			used[p] = true
		}
		sel = append(sel, ci)
		covered += len(col.Procs)
		if covered == n {
			break
		}
	}
	if covered < n {
		// Cover the leftovers with any conflict-free columns (cheapest
		// first among those fully free).
		for ci := range m.Columns {
			col := &m.Columns[ci]
			ok := true
			for _, p := range col.Procs {
				if used[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, p := range col.Procs {
				used[p] = true
			}
			sel = append(sel, ci)
			covered += len(col.Procs)
			if covered == n {
				break
			}
		}
	}
	if covered < n {
		return math.Inf(1), nil
	}
	groups := m.Groups(sel)
	return m.Cost.PartitionCost(groups), sel
}
