package main

import (
	_ "embed"
	"fmt"
	"math"
	"strconv"
	"strings"

	"cosched"
)

// checkPartition verifies that groups place every process 1..procs on
// exactly one core of exactly machines machines of cores cores each.
func checkPartition(groups [][]int, procs, machines, cores int) error {
	if len(groups) != machines {
		return fmt.Errorf("%d machines, want %d", len(groups), machines)
	}
	seen := make([]bool, procs+1)
	for mi, g := range groups {
		if len(g) != cores {
			return fmt.Errorf("machine %d holds %d processes, want %d", mi, len(g), cores)
		}
		for _, p := range g {
			if p < 1 || p > procs || seen[p] {
				return fmt.Errorf("process %d placed twice or out of range", p)
			}
			seen[p] = true
		}
	}
	return nil
}

// sameCost reports whether two costs agree to floating-point summation
// order (relative 1e-9).
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkSchedule validates a solver answer: a partition onto machines of
// the instance's core count, whose per-job degradations sum to the
// reported objective (Eq. 6/13), and, when want is not NaN, whose cost
// equals the reference.
func checkSchedule(inst *cosched.Instance, cores int, s *cosched.Schedule, want float64) error {
	if err := checkPartition(s.Groups(), inst.NumProcesses(), inst.NumMachines(), cores); err != nil {
		return err
	}
	if s.Stats.Degraded {
		return fmt.Errorf("degraded answer (%v)", s.Stats.AbortReason)
	}
	sum := 0.0
	for _, d := range s.JobDegradations() {
		sum += d
	}
	if !sameCost(sum, s.TotalDegradation) {
		return fmt.Errorf("per-job degradations sum to %.12g, objective is %.12g", sum, s.TotalDegradation)
	}
	if !math.IsNaN(want) && !sameCost(s.TotalDegradation, want) {
		return fmt.Errorf("cost %.12g, brute force says %.12g", s.TotalDegradation, want)
	}
	return nil
}

// exactRefsText pins the brute-force optimum of every instance in the
// solve-exact pool: one "<seed> <cost>" line per
// SyntheticMixed(16, 6, 2, QuadCore, seed). Regenerate with
// `go run . -refs > exact_refs.txt` (about 5 minutes of brute force).
//
//go:embed exact_refs.txt
var exactRefsText string

// exactRefs parses the pinned reference costs.
func exactRefs() (map[int64]float64, error) {
	refs := map[int64]float64{}
	for _, line := range strings.Split(exactRefsText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("exact_refs.txt: bad line %q", line)
		}
		seed, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("exact_refs.txt: %w", err)
		}
		cost, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("exact_refs.txt: %w", err)
		}
		refs[seed] = cost
	}
	return refs, nil
}
