// Package comm models the inter-process communication of PC (parallel,
// communicating) jobs: the 1D/2D/3D domain decomposition that determines
// each process's neighbours, the per-neighbour data volumes α_i(k), and the
// communication time c(i,S) of Eq. 10-11.
//
// The model follows the paper's assumptions: regular communication
// patterns; intra-machine communication is free (it overlaps with, and is
// faster than, inter-machine traffic); inter-machine bandwidth B is uniform
// across the cluster; in a typical decomposition the two neighbours of a
// process in the same dimension carry the same volume (α_i(1)=α_i(3),
// α_i(2)=α_i(4) in the paper's Fig. 2 example).
package comm

import (
	"fmt"
	"slices"
)

// Pattern describes the communication structure of one PC job: a dense
// process grid with halo exchange between grid-adjacent ranks.
type Pattern struct {
	// Dims is the process grid shape; len(Dims) ∈ {1,2,3} and the product
	// of the dims equals the job's process count. Ranks are laid out
	// row-major (x fastest).
	Dims []int
	// HaloBytes[d] is α: the bytes process i exchanges with each of its
	// neighbours along dimension d per data-set pass.
	HaloBytes []float64
}

// Validate reports malformed patterns.
func (pt *Pattern) Validate(nprocs int) error {
	if pt == nil {
		return nil
	}
	if len(pt.Dims) < 1 || len(pt.Dims) > 3 {
		return fmt.Errorf("comm: pattern has %d dimensions; want 1..3", len(pt.Dims))
	}
	if len(pt.HaloBytes) != len(pt.Dims) {
		return fmt.Errorf("comm: %d halo volumes for %d dimensions", len(pt.HaloBytes), len(pt.Dims))
	}
	total := 1
	for d, n := range pt.Dims {
		if n < 1 {
			return fmt.Errorf("comm: dimension %d has extent %d", d, n)
		}
		total *= n
	}
	if total != nprocs {
		return fmt.Errorf("comm: grid %v holds %d ranks; job has %d processes", pt.Dims, total, nprocs)
	}
	for d, h := range pt.HaloBytes {
		if h < 0 {
			return fmt.Errorf("comm: negative halo volume in dimension %d", d)
		}
	}
	return nil
}

// NumRanks returns the total number of ranks in the grid.
func (pt *Pattern) NumRanks() int {
	if pt == nil {
		return 0
	}
	total := 1
	for _, n := range pt.Dims {
		total *= n
	}
	return total
}

// Coords returns the grid coordinates of a rank (row-major, x fastest).
func (pt *Pattern) Coords(rank int) []int {
	return pt.appendCoords(make([]int, 0, len(pt.Dims)), rank)
}

// appendCoords appends the grid coordinates of rank to dst.
func (pt *Pattern) appendCoords(dst []int, rank int) []int {
	for _, n := range pt.Dims {
		dst = append(dst, rank%n)
		rank /= n
	}
	return dst
}

// Rank is the inverse of Coords.
func (pt *Pattern) Rank(coords []int) int {
	rank := 0
	stride := 1
	for d, n := range pt.Dims {
		rank += coords[d] * stride
		stride *= n
	}
	return rank
}

// Neighbor is one halo-exchange partner of a rank.
type Neighbor struct {
	Rank  int     // the b_i(k) of Eq. 10: the neighbouring rank
	Dim   int     // decomposition dimension the exchange runs along
	Bytes float64 // α_i(k): volume exchanged with this neighbour
}

// Neighbors returns the grid-adjacent ranks of the given rank with their
// exchange volumes. Boundaries are non-periodic: edge ranks have fewer
// neighbours.
func (pt *Pattern) Neighbors(rank int) []Neighbor {
	if pt == nil {
		return nil
	}
	return pt.appendNeighbors(nil, rank)
}

// appendNeighbors appends the neighbours of rank to dst, in the order
// Neighbors returns them, and returns the extended slice. The coordinates
// of a valid pattern (at most 3 dimensions) live on the stack, so with a
// dst of capacity 6 it allocates nothing.
func (pt *Pattern) appendNeighbors(dst []Neighbor, rank int) []Neighbor {
	var buf [3]int
	coords := pt.appendCoords(buf[:0], rank)
	for d, n := range pt.Dims {
		for _, dir := range [2]int{-1, +1} {
			c := coords[d] + dir
			if c < 0 || c >= n {
				continue
			}
			coords[d] = c
			dst = append(dst, Neighbor{Rank: pt.Rank(coords), Dim: d, Bytes: pt.HaloBytes[d]})
			coords[d] -= dir
		}
	}
	return dst
}

// Time computes c(i,S) of Eq. 10-11: the inter-machine communication time
// (seconds) of the given rank when the ranks listed in sameMachine (other
// ranks of its own job) share its machine. Neighbours on the same machine
// communicate through memory and contribute nothing (β=0); every other
// neighbour's volume crosses the network at bandwidth bw bytes/second
// (β=1). sameMachine holds at most u-1 ranks, so membership is a linear
// scan, and the call allocates nothing.
func (pt *Pattern) Time(rank int, sameMachine []int, bw float64) float64 {
	if pt == nil || bw <= 0 {
		return 0
	}
	var buf [6]Neighbor
	var bytes float64
	for _, nb := range pt.appendNeighbors(buf[:0], rank) {
		if !slices.Contains(sameMachine, nb.Rank) {
			bytes += nb.Bytes
		}
	}
	return bytes / bw
}

// Grid1D builds the pattern of a 1D (slab) domain decomposition.
func Grid1D(n int, halo float64) *Pattern {
	return &Pattern{Dims: []int{n}, HaloBytes: []float64{halo}}
}

// Grid2D builds the pattern of a 2D (pencil) domain decomposition.
func Grid2D(nx, ny int, haloX, haloY float64) *Pattern {
	return &Pattern{Dims: []int{nx, ny}, HaloBytes: []float64{haloX, haloY}}
}

// Grid3D builds the pattern of a 3D (block) domain decomposition.
func Grid3D(nx, ny, nz int, haloX, haloY, haloZ float64) *Pattern {
	return &Pattern{Dims: []int{nx, ny, nz}, HaloBytes: []float64{haloX, haloY, haloZ}}
}

// NearSquareGrid2D factors n into the most square nx×ny grid (nx ≤ ny),
// matching how MPI codes lay out 2D decompositions for arbitrary process
// counts.
func NearSquareGrid2D(n int, haloX, haloY float64) *Pattern {
	nx := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			nx = f
		}
	}
	return Grid2D(nx, n/nx, haloX, haloY)
}
