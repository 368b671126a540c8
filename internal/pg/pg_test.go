package pg

import (
	"math"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/job"
	"cosched/internal/workload"
)

func testCost(t *testing.T, n, u int, seed int64) *degradation.Cost {
	t.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SyntheticSerialInstance(n, &m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in.Cost(degradation.ModePC)
}

func TestSolveProducesValidSchedule(t *testing.T) {
	for _, u := range []int{2, 4, 8} {
		c := testCost(t, 16, u, 1)
		res := Solve(c)
		if err := c.ValidatePartition(res.Groups); err != nil {
			t.Errorf("u=%d: %v", u, err)
		}
		if got := c.PartitionCost(res.Groups); math.Abs(got-res.Cost) > 1e-9 {
			t.Errorf("u=%d: reported cost %v != recomputed %v", u, res.Cost, got)
		}
	}
}

func TestPolitenessOrdersAggressors(t *testing.T) {
	// Build a pairwise instance where process 1 causes huge degradation
	// and process 2 causes none.
	bd := job.NewBuilder()
	for i := 0; i < 4; i++ {
		bd.AddSerial("s")
	}
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	mtx := make([][]float64, 4)
	for i := range mtx {
		mtx[i] = make([]float64, 4)
		for j := range mtx[i] {
			if i == j {
				continue
			}
			switch j {
			case 0:
				mtx[i][j] = 0.9 // everyone suffers 0.9 from process 1
			case 1:
				mtx[i][j] = 0.0
			default:
				mtx[i][j] = 0.3
			}
		}
	}
	o, err := degradation.NewPairwiseOracle(b, mtx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := degradation.NewCost(b, o, degradation.ModePC)
	pol := Politeness(c)
	if !(pol[1] > pol[3] && pol[3] > pol[2]) {
		t.Errorf("politeness = %v; want caused(1) > caused(3,4) > caused(2)", pol[1:])
	}
	// PG must pair the aggressor (1) with the most polite process (2).
	res := Solve(c)
	var grpOf1 []job.ProcID
	for _, g := range res.Groups {
		for _, p := range g {
			if p == 1 {
				grpOf1 = g
			}
		}
	}
	if len(grpOf1) != 2 || (grpOf1[0] != 2 && grpOf1[1] != 2) {
		t.Errorf("PG grouped process 1 with %v; want process 2", grpOf1)
	}
}

func TestPolitenessImaginaryIsZero(t *testing.T) {
	m := cache.QuadCore
	in, err := workload.SerialInstance([]string{"BT", "CG", "EP"}, &m) // pads to 4
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cost(degradation.ModePC)
	pol := Politeness(c)
	if pol[4] != 0 {
		t.Errorf("imaginary process politeness = %v; want 0", pol[4])
	}
	res := Solve(c)
	if err := c.ValidatePartition(res.Groups); err != nil {
		t.Error(err)
	}
}

func TestSolveHandlesParallelBatch(t *testing.T) {
	m := cache.QuadCore
	in, err := workload.SyntheticMixedInstance(16, 2, 4, &m, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cost(degradation.ModePC)
	res := Solve(c)
	if err := c.ValidatePartition(res.Groups); err != nil {
		t.Error(err)
	}
	if res.Cost <= 0 {
		t.Errorf("mixed-batch PG cost = %v; want > 0", res.Cost)
	}
}

// TestPolitenessAllocationsFlatInN guards the scoring pass: one
// co-runner slice serves all n(n-1) pair queries and the SDC oracle
// answers each on the stack, so scoring a larger batch allocates no
// more.
func TestPolitenessAllocationsFlatInN(t *testing.T) {
	small, large := testCost(t, 16, 4, 1), testCost(t, 64, 4, 1)
	a := testing.AllocsPerRun(5, func() { Politeness(small) })
	b := testing.AllocsPerRun(5, func() { Politeness(large) })
	if b > a {
		t.Errorf("scoring 64 processes costs %.0f allocs, 16 cost %.0f; want no growth", b, a)
	}
}
