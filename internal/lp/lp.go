// Package lp is a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimise cᵀx  subject to  Ax {≤,=,≥} b,  x ≥ 0.
//
// It is the LP substrate under the branch-and-bound 0-1 IP solver
// (internal/ip) that stands in for the commercial/open IP solvers the
// paper benchmarks (CPLEX, CBC, SCIP, GLPK — §V-D). The problems the IP
// method generates are small set-partitioning LPs (tens of rows, up to a
// few thousand columns), for which a dense tableau is simple and fast
// enough.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of one constraint.
type Relation int

// The three constraint senses.
const (
	LE Relation = iota // ≤
	GE                 // ≥
	EQ                 // =
)

// Status classifies the outcome of a solve.
type Status int

// The solve outcomes, in decreasing order of usefulness.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Term is one non-zero coefficient of a constraint.
type Term struct {
	Var   int
	Coeff float64
}

type constraint struct {
	terms []Term
	rel   Relation
	rhs   float64
}

// Problem is a linear program under construction.
type Problem struct {
	numVars int
	c       []float64
	cons    []constraint
	// MaxIters bounds total simplex pivots (both phases); 0 means the
	// default.
	MaxIters int
}

// NewProblem creates a problem with the given number of structural
// variables, all with zero objective coefficient initially.
func NewProblem(numVars int) *Problem {
	return &Problem{numVars: numVars, c: make([]float64, numVars)}
}

// SetObjective sets the cost of one variable (minimisation).
func (p *Problem) SetObjective(v int, cost float64) { p.c[v] = cost }

// AddConstraint appends a constraint. Terms with duplicate variables are
// summed.
func (p *Problem) AddConstraint(terms []Term, rel Relation, rhs float64) {
	p.cons = append(p.cons, constraint{terms: append([]Term(nil), terms...), rel: rel, rhs: rhs})
}

// NumVars returns the structural variable count.
func (p *Problem) NumVars() int { return p.numVars }

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // values of the structural variables
	Iters     int
}

const (
	eps        = 1e-9
	defaultMax = 200000
)

// Solve runs two-phase primal simplex.
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.cons)
	// Column layout: [structural | slack/surplus | artificial], then RHS.
	nStruct := p.numVars
	nSlack := 0
	for _, c := range p.cons {
		if c.rel != EQ {
			nSlack++
		}
	}
	// Artificial variables: for GE and EQ rows (and LE rows with
	// negative RHS after normalisation, handled by flipping the row
	// first).
	type rowSpec struct {
		terms []Term
		rel   Relation
		rhs   float64
	}
	rows := make([]rowSpec, m)
	for i, c := range p.cons {
		r := rowSpec{terms: c.terms, rel: c.rel, rhs: c.rhs}
		if r.rhs < 0 {
			// Flip the row so RHS is non-negative.
			flipped := make([]Term, len(r.terms))
			for k, t := range r.terms {
				flipped[k] = Term{Var: t.Var, Coeff: -t.Coeff}
			}
			r.terms = flipped
			r.rhs = -r.rhs
			switch r.rel {
			case LE:
				r.rel = GE
			case GE:
				r.rel = LE
			}
		}
		rows[i] = r
	}
	nArt := 0
	for _, r := range rows {
		if r.rel != LE {
			nArt++
		}
	}
	total := nStruct + nSlack + nArt
	// Tableau: m rows × (total+1) columns (last is RHS).
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackCol := nStruct
	artCol := nStruct + nSlack
	for i, r := range rows {
		tab[i] = make([]float64, total+1)
		for _, t := range r.terms {
			if t.Var < 0 || t.Var >= nStruct {
				return nil, fmt.Errorf("lp: constraint %d references variable %d of %d", i, t.Var, nStruct)
			}
			tab[i][t.Var] += t.Coeff
		}
		tab[i][total] = r.rhs
		switch r.rel {
		case LE:
			tab[i][slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			tab[i][slackCol] = -1
			slackCol++
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
		}
	}

	maxIters := p.MaxIters
	if maxIters == 0 {
		maxIters = defaultMax
	}
	iters := 0

	// Phase 1: minimise the sum of artificial variables.
	if nArt > 0 {
		phase1 := make([]float64, total)
		for j := nStruct + nSlack; j < total; j++ {
			phase1[j] = 1
		}
		st, it := simplex(tab, basis, phase1, maxIters)
		iters += it
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iters: iters}, nil
		}
		var artSum float64
		for i, b := range basis {
			if b >= nStruct+nSlack {
				artSum += tab[i][total]
			}
		}
		if artSum > 1e-7 {
			return &Solution{Status: Infeasible, Iters: iters}, nil
		}
		// Pivot remaining (degenerate) artificials out of the basis
		// where possible.
		for i, b := range basis {
			if b < nStruct+nSlack {
				continue
			}
			for j := 0; j < nStruct+nSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, basis, i, j)
					break
				}
			}
		}
	}

	// Phase 2: original objective over structural columns. Artificial
	// columns get a big-M cost so a degenerate basic artificial can
	// still leave the basis without destabilising the arithmetic.
	bigM := 1.0
	for _, cv := range p.c {
		if a := math.Abs(cv); a > bigM {
			bigM = a
		}
	}
	bigM *= 1e7
	phase2 := make([]float64, total)
	copy(phase2, p.c)
	for j := nStruct + nSlack; j < total; j++ {
		phase2[j] = bigM
	}
	st, it := simplex(tab, basis, phase2, maxIters-iters)
	iters += it
	switch st {
	case Unbounded:
		return &Solution{Status: Unbounded, Iters: iters}, nil
	case IterLimit:
		return &Solution{Status: IterLimit, Iters: iters}, nil
	}

	x := make([]float64, nStruct)
	for i, b := range basis {
		if b < nStruct {
			x[b] = tab[i][total]
		}
	}
	var obj float64
	for j, v := range x {
		obj += p.c[j] * v
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Iters: iters}, nil
}

// simplex runs primal simplex on the tableau with the given objective,
// mutating tab and basis. Dantzig pricing with a Bland fallback after
// stalling protects against cycling.
func simplex(tab [][]float64, basis []int, c []float64, maxIters int) (Status, int) {
	m := len(tab)
	if m == 0 {
		return Optimal, 0
	}
	total := len(tab[0]) - 1
	// reduced costs: r_j = c_j - c_B B^{-1} A_j; with the tableau kept in
	// canonical form, r_j = c_j - sum_i c_basis[i] * tab[i][j].
	reduced := func(j int) float64 {
		r := c[j]
		for i := 0; i < m; i++ {
			if cb := c[basis[i]]; cb != 0 {
				r -= cb * tab[i][j]
			}
		}
		return r
	}
	iters := 0
	stall := 0
	for ; iters < maxIters; iters++ {
		// Entering variable.
		enter := -1
		best := -eps
		useBland := stall > 2*m+50
		for j := 0; j <= total-1; j++ {
			r := reduced(j)
			if useBland {
				if r < -eps {
					enter = j
					break
				}
			} else if r < best {
				best = r
				enter = j
			}
		}
		if enter < 0 {
			return Optimal, iters
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a > eps {
				ratio := tab[i][total] / a
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, iters
		}
		if bestRatio < eps {
			stall++
		} else {
			stall = 0
		}
		pivot(tab, basis, leave, enter)
	}
	return IterLimit, iters
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func pivot(tab [][]float64, basis []int, row, col int) {
	m := len(tab)
	w := len(tab[0])
	pv := tab[row][col]
	inv := 1 / pv
	prow := tab[row]
	for j := 0; j < w; j++ {
		prow[j] *= inv
	}
	prow[col] = 1
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		trow := tab[i]
		for j := 0; j < w; j++ {
			trow[j] -= f * prow[j]
		}
		trow[col] = 0
	}
	basis[row] = col
}

// ErrBadModel reports structural model errors.
var ErrBadModel = errors.New("lp: malformed model")
