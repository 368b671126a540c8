package degradation

import (
	"math"
	"math/rand"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/comm"
	"cosched/internal/job"
)

// testInstance builds a small mixed batch with an SDC oracle: one PC job
// with 4 ranks on a 2x2 grid, one PE job with 2 ranks, two serial jobs.
func testInstance(t *testing.T, u int) (*job.Batch, *SDCOracle) {
	t.Helper()
	bd := job.NewBuilder()
	pc := bd.AddPC("mpi", 4)
	bd.AddPE("mc", 2)
	bd.AddSerial("s1")
	bd.AddSerial("s2")
	b, err := bd.Build(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]*cache.Profile, b.NumProcs())
	rng := rand.New(rand.NewSource(42))
	for i := range b.Procs {
		if b.Procs[i].Imaginary {
			continue
		}
		hits := make([]float64, m.Ways)
		for d := range hits {
			hits[d] = 1 + rng.Float64()*4
		}
		profiles[i] = &cache.Profile{
			Name:       "p",
			Hits:       hits,
			Beyond:     1 + rng.Float64()*4,
			BaseCycles: 1e9 * (1 + rng.Float64()),
		}
	}
	patterns := map[job.JobID]*comm.Pattern{pc: comm.Grid2D(2, 2, 1e9, 2e9)}
	o, err := NewSDCOracle(b, &m, profiles, patterns)
	if err != nil {
		t.Fatal(err)
	}
	return b, o
}

func TestSDCOracleSoloZero(t *testing.T) {
	_, o := testInstance(t, 4)
	if d := o.Degradation(1, nil); d != 0 {
		t.Errorf("solo degradation = %v; want 0", d)
	}
}

func TestSDCOracleImaginaryZero(t *testing.T) {
	b, o := testInstance(t, 8) // 8 real procs on 8-core: no padding; rebuild with 4... use u=8? 8 real -> no imaginary.
	_ = b
	b2, o2 := testInstanceWithPadding(t)
	pad := job.ProcID(b2.NumProcs())
	if !b2.Proc(pad).Imaginary {
		t.Fatal("expected last process to be padding")
	}
	if d := o2.Degradation(pad, []job.ProcID{1, 2, 3}); d != 0 {
		t.Errorf("imaginary degradation = %v; want 0", d)
	}
	// imaginary co-runners change nothing
	d1 := o2.Degradation(1, []job.ProcID{2})
	d2 := o2.Degradation(1, []job.ProcID{2, pad})
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("imaginary co-runner changed degradation: %v vs %v", d1, d2)
	}
	_ = o
}

// testInstanceWithPadding returns a batch whose size forces padding.
func testInstanceWithPadding(t *testing.T) (*job.Batch, *SDCOracle) {
	t.Helper()
	bd := job.NewBuilder()
	bd.AddSerial("a")
	bd.AddSerial("b")
	bd.AddSerial("c")
	b, err := bd.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	m := cache.QuadCore
	profiles := make([]*cache.Profile, b.NumProcs())
	for i := range b.Procs {
		if b.Procs[i].Imaginary {
			continue
		}
		hits := make([]float64, m.Ways)
		for d := range hits {
			hits[d] = float64(i + 1)
		}
		profiles[i] = &cache.Profile{Name: "p", Hits: hits, Beyond: 2, BaseCycles: 1e9}
	}
	o, err := NewSDCOracle(b, &m, profiles, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b, o
}

func TestSDCOracleCommDegradation(t *testing.T) {
	b, o := testInstance(t, 4)
	// Process 1 is rank 0 of the 2x2 PC job: neighbours rank 1 (x, 1e9B)
	// and rank 2 (y, 2e9B). With no co-runners both cross the network.
	ct := cache.SoloCPUTime(o.Machine(), o.Profile(1))
	want := (1e9 + 2e9) / o.Machine().NetworkBandwidth / ct
	if got := o.CommDegradation(1, nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("CommDegradation(1, none) = %v; want %v", got, want)
	}
	// With rank 1 (process 2) local, only the y exchange remains.
	want = 2e9 / o.Machine().NetworkBandwidth / ct
	if got := o.CommDegradation(1, []job.ProcID{2}); math.Abs(got-want) > 1e-12 {
		t.Errorf("CommDegradation(1, {2}) = %v; want %v", got, want)
	}
	// Serial processes never have communication.
	if got := o.CommDegradation(7, []job.ProcID{1}); got != 0 {
		t.Errorf("serial CommDegradation = %v; want 0", got)
	}
	// PE processes never have communication.
	if got := o.CommDegradation(5, []job.ProcID{6}); got != 0 {
		t.Errorf("PE CommDegradation = %v; want 0", got)
	}
	_ = b
}

func TestSDCOracleRejectsBadInputs(t *testing.T) {
	bd := job.NewBuilder()
	bd.AddSerial("a")
	bd.AddSerial("b")
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	m := cache.DualCore
	good := func() []*cache.Profile {
		ps := make([]*cache.Profile, 2)
		for i := range ps {
			ps[i] = &cache.Profile{Name: "p", Hits: make([]float64, m.Ways), Beyond: 1, BaseCycles: 1}
		}
		return ps
	}
	if _, err := NewSDCOracle(b, &m, good()[:1], nil); err == nil {
		t.Error("accepted wrong profile count")
	}
	ps := good()
	ps[0] = nil
	if _, err := NewSDCOracle(b, &m, ps, nil); err == nil {
		t.Error("accepted nil profile for real process")
	}
	if _, err := NewSDCOracle(b, &m, good(), map[job.JobID]*comm.Pattern{5: comm.Grid1D(1, 0)}); err == nil {
		t.Error("accepted pattern for unknown job")
	}
}

func TestPairwiseOracle(t *testing.T) {
	bd := job.NewBuilder()
	bd.AddSerial("a")
	bd.AddSerial("b")
	bd.AddSerial("c")
	bd.AddSerial("d")
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	mtx := [][]float64{
		{0, 1, 2, 3},
		{4, 0, 5, 6},
		{7, 8, 0, 9},
		{10, 11, 12, 0},
	}
	o, err := NewPairwiseOracle(b, mtx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Degradation(1, []job.ProcID{3}); got != 2 {
		t.Errorf("Degradation(1,{3}) = %v; want 2", got)
	}
	if got := o.Degradation(2, []job.ProcID{1, 4}); got != 10 {
		t.Errorf("Degradation(2,{1,4}) = %v; want 10", got)
	}
	if got := o.CommDegradation(1, nil); got != 0 {
		t.Errorf("serial pairwise CommDegradation = %v", got)
	}
}

func TestPairwiseOracleRejectsBadMatrices(t *testing.T) {
	bd := job.NewBuilder()
	bd.AddSerial("a")
	bd.AddSerial("b")
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][][]float64{
		{{0, 1}},                    // wrong rows
		{{0}, {0}},                  // wrong cols
		{{1, 1}, {1, 0}},            // non-zero diagonal
		{{0, -1}, {1, 0}},           // negative
		{{0, math.NaN()}, {1, 0}},   // NaN
		{{0, 1}, {math.Inf(1), 0}},  // +Inf
		{{0, math.Inf(-1)}, {1, 0}}, // -Inf
	}
	for i, mtx := range cases {
		if _, err := NewPairwiseOracle(b, mtx, nil, 0); err == nil {
			t.Errorf("case %d: accepted bad matrix", i)
		}
	}
}

func TestPairwiseOracleCommTerm(t *testing.T) {
	bd := job.NewBuilder()
	pc := bd.AddPC("mpi", 2)
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	mtx := [][]float64{{0, 0}, {0, 0}}
	pat := comm.Grid1D(2, 100)
	o, err := NewPairwiseOracle(b, mtx, map[job.JobID]*comm.Pattern{pc: pat}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.CommDegradation(1, nil); got != 1.0 { // 100 bytes * 0.01
		t.Errorf("CommDegradation remote = %v; want 1.0", got)
	}
	if got := o.CommDegradation(1, []job.ProcID{2}); got != 0 {
		t.Errorf("CommDegradation local = %v; want 0", got)
	}
}

// TestCommDegradationAllocationFree guards the Eq. 10-11 path of both
// oracles: the co-located ranks and the neighbour coordinates live on
// the stack, so a communication query touches no heap.
func TestCommDegradationAllocationFree(t *testing.T) {
	_, sdc := testInstance(t, 4)
	bd := job.NewBuilder()
	pc := bd.AddPC("mpi", 4)
	b, err := bd.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	mtx := make([][]float64, 4)
	for i := range mtx {
		mtx[i] = make([]float64, 4)
	}
	pw, err := NewPairwiseOracle(b, mtx, map[job.JobID]*comm.Pattern{pc: comm.Grid2D(2, 2, 100, 200)}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	co := []job.ProcID{2, 3, 4}
	for name, o := range map[string]Oracle{"sdc": sdc, "pairwise": pw} {
		if o.CommDegradation(1, co[:1]) == 0 {
			t.Fatalf("%s: rank 0 with one remote neighbour has no communication term", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { o.CommDegradation(1, co) }); allocs != 0 {
			t.Errorf("%s CommDegradation costs %.1f allocs; want 0", name, allocs)
		}
	}
}
