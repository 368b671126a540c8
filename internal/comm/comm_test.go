package comm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoordsRankRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := make([]int, 1+rng.Intn(3))
		n := 1
		for i := range dims {
			dims[i] = 1 + rng.Intn(4)
			n *= dims[i]
		}
		halo := make([]float64, len(dims))
		pt := &Pattern{Dims: dims, HaloBytes: halo}
		for r := 0; r < n; r++ {
			if pt.Rank(pt.Coords(r)) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighbors2DInterior(t *testing.T) {
	// 3x3 grid, rank 4 is the centre: p5 of the paper's Fig. 2.
	pt := Grid2D(3, 3, 100, 200)
	nbs := pt.Neighbors(4)
	if len(nbs) != 4 {
		t.Fatalf("centre of 3x3 has %d neighbours; want 4", len(nbs))
	}
	wantRanks := map[int]bool{1: true, 3: true, 5: true, 7: true}
	var xBytes, yBytes float64
	for _, nb := range nbs {
		if !wantRanks[nb.Rank] {
			t.Errorf("unexpected neighbour rank %d", nb.Rank)
		}
		switch nb.Dim {
		case 0:
			xBytes += nb.Bytes
		case 1:
			yBytes += nb.Bytes
		}
	}
	if xBytes != 200 || yBytes != 400 {
		t.Errorf("x/y volumes = %v/%v; want 200/400", xBytes, yBytes)
	}
}

func TestNeighborsCornerAndEdge(t *testing.T) {
	pt := Grid2D(3, 3, 1, 1)
	if got := len(pt.Neighbors(0)); got != 2 {
		t.Errorf("corner has %d neighbours; want 2", got)
	}
	if got := len(pt.Neighbors(1)); got != 3 {
		t.Errorf("edge has %d neighbours; want 3", got)
	}
}

func TestNeighbors1DAnd3D(t *testing.T) {
	line := Grid1D(5, 10)
	if got := len(line.Neighbors(2)); got != 2 {
		t.Errorf("1D interior has %d neighbours; want 2", got)
	}
	if got := len(line.Neighbors(0)); got != 1 {
		t.Errorf("1D end has %d neighbours; want 1", got)
	}
	cube := Grid3D(3, 3, 3, 1, 1, 1)
	if got := len(cube.Neighbors(13)); got != 6 { // centre of 3x3x3
		t.Errorf("3D centre has %d neighbours; want 6", got)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	// Property: if a is a neighbour of b, b is a neighbour of a with the
	// same volume.
	pt := Grid3D(2, 3, 2, 5, 7, 11)
	n := pt.NumRanks()
	for a := 0; a < n; a++ {
		for _, nb := range pt.Neighbors(a) {
			found := false
			for _, back := range pt.Neighbors(nb.Rank) {
				if back.Rank == a && back.Bytes == nb.Bytes && back.Dim == nb.Dim {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbour relation not symmetric between %d and %d", a, nb.Rank)
			}
		}
	}
}

func TestTimeMatchesPaperExample(t *testing.T) {
	// Paper Fig. 2: 3x3 decomposition, p5 (rank 4) co-scheduled with p6
	// (rank 5). Its communication is alpha5(1)+alpha5(3)+alpha5(4): both
	// x-direction... wait: p5 communicates with p2,p4,p6,p8; p6 is local.
	// Remaining: p4 (x), p2 and p8 (y). With haloX=hx and haloY=hy the
	// time is (hx + 2*hy)/B.
	hx, hy := 100.0, 200.0
	pt := Grid2D(3, 3, hx, hy)
	b := 1000.0
	got := pt.Time(4, []int{5}, b)
	want := (hx + 2*hy) / b
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Time = %v; want %v", got, want)
	}
}

func TestTimeAllNeighboursLocalIsZero(t *testing.T) {
	pt := Grid1D(3, 50)
	got := pt.Time(1, []int{0, 2}, 10)
	if got != 0 {
		t.Errorf("Time with all neighbours local = %v; want 0", got)
	}
}

func TestTimeNilPatternAndZeroBandwidth(t *testing.T) {
	var pt *Pattern
	if got := pt.Time(0, nil, 10); got != 0 {
		t.Errorf("nil pattern Time = %v", got)
	}
	g := Grid1D(2, 10)
	if got := g.Time(0, nil, 0); got != 0 {
		t.Errorf("zero-bandwidth Time = %v", got)
	}
}

func TestValidate(t *testing.T) {
	good := Grid2D(2, 3, 1, 1)
	if err := good.Validate(6); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	cases := []struct {
		pt     *Pattern
		nprocs int
	}{
		{&Pattern{Dims: []int{}, HaloBytes: []float64{}}, 1},
		{&Pattern{Dims: []int{1, 1, 1, 1}, HaloBytes: []float64{1, 1, 1, 1}}, 1},
		{&Pattern{Dims: []int{2}, HaloBytes: []float64{1, 2}}, 2},
		{&Pattern{Dims: []int{0}, HaloBytes: []float64{1}}, 0},
		{&Pattern{Dims: []int{2}, HaloBytes: []float64{-1}}, 2},
		{Grid2D(2, 2, 1, 1), 5}, // wrong rank count
	}
	for i, tc := range cases {
		if err := tc.pt.Validate(tc.nprocs); err == nil {
			t.Errorf("case %d: Validate accepted %+v for %d procs", i, tc.pt, tc.nprocs)
		}
	}
	var nilPt *Pattern
	if err := nilPt.Validate(5); err != nil {
		t.Errorf("nil pattern rejected: %v", err)
	}
}

func TestNearSquareGrid2D(t *testing.T) {
	cases := []struct {
		n      int
		nx, ny int
	}{
		{9, 3, 3},
		{12, 3, 4},
		{11, 1, 11}, // prime: degenerates to 1D-like
		{16, 4, 4},
		{1, 1, 1},
	}
	for _, tc := range cases {
		pt := NearSquareGrid2D(tc.n, 1, 1)
		if pt.Dims[0] != tc.nx || pt.Dims[1] != tc.ny {
			t.Errorf("NearSquareGrid2D(%d) = %v; want [%d %d]", tc.n, pt.Dims, tc.nx, tc.ny)
		}
		if err := pt.Validate(tc.n); err != nil {
			t.Errorf("NearSquareGrid2D(%d): %v", tc.n, err)
		}
	}
}

func TestNumRanks(t *testing.T) {
	if got := Grid3D(2, 3, 4, 0, 0, 0).NumRanks(); got != 24 {
		t.Errorf("NumRanks = %d; want 24", got)
	}
	var pt *Pattern
	if got := pt.NumRanks(); got != 0 {
		t.Errorf("nil NumRanks = %d; want 0", got)
	}
}
