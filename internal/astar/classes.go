package astar

import (
	"cosched/internal/job"
)

// forEachClassCandidate enumerates the candidate nodes for a level as
// multisets over process equivalence classes: every PE job forms one
// class (its ranks are interchangeable — same profile, no communication),
// while serial processes, PC ranks and padding processes stay singleton
// classes. For each multiset one representative node is produced, built
// from the lowest-ID available ranks of each PE class.
//
// The enumeration is exact under PE symmetry: every raw candidate node of
// the level is equivalent (identical weight, identical completion costs)
// to exactly one representative produced here.
//
// The class table lives in solver scratch: classes are numbered in order
// of first appearance in avail (groupClass maps a symmetry group to its
// class), and their members are laid out class by class in classMem, in
// avail order, classEnd[c] ending class c's run. The emitted node is
// scratch too (leaf), valid until fn returns.
func (s *Solver) forEachClassCandidate(leader job.ProcID, avail []job.ProcID, fn func(node []job.ProcID) bool) {
	r := s.u - 1
	sc := &s.scr
	if cap(sc.node) < s.u {
		sc.node = make([]job.ProcID, s.u)
	}
	if cap(sc.leaf) < s.u {
		sc.leaf = make([]job.ProcID, s.u)
	}
	if r == 0 {
		fn(append(sc.leaf[:0], leader))
		return
	}
	if len(avail) < r {
		return
	}
	groups := len(s.peJobMask)
	if cap(sc.groupClass) < groups {
		sc.groupClass = make([]int32, groups)
	}
	gc := sc.groupClass[:groups]
	for i := range gc {
		gc[i] = -1
	}
	// First pass: number the classes and count their members.
	ends := sc.classEnd[:0]
	for _, p := range avail {
		g := s.peGroup[int(p)-1]
		if g < 0 {
			ends = append(ends, 1)
			continue
		}
		if gc[g] < 0 {
			gc[g] = int32(len(ends))
			ends = append(ends, 0)
		}
		ends[gc[g]]++
	}
	sc.classEnd = ends
	// Turn the counts into run starts, then place each member at its
	// class's cursor; the cursors finish on the run ends. A class seen
	// for the first time is always the next number.
	var start int32
	for c, cnt := range ends {
		ends[c] = start
		start += cnt
	}
	if cap(sc.classMem) < len(avail) {
		sc.classMem = make([]job.ProcID, len(avail))
	}
	mem := sc.classMem[:len(avail)]
	sc.classMem = mem
	next := int32(0)
	for _, p := range avail {
		c := next
		if g := s.peGroup[int(p)-1]; g >= 0 {
			c = gc[g]
		}
		if c == next {
			next++
		}
		mem[ends[c]] = p
		ends[c]++
	}
	s.classRec(0, r, append(sc.node[:0], leader), fn)
}

// classRec extends node, which holds the leader and the members taken
// from classes before ci, by every choice of how many of class ci's
// lowest-ID members to take, until need more are placed. It reports
// false once fn has asked to stop.
func (s *Solver) classRec(ci, need int, node []job.ProcID, fn func(node []job.ProcID) bool) bool {
	sc := &s.scr
	if need == 0 {
		out := append(sc.leaf[:0], node...)
		sortNode(out)
		return fn(out)
	}
	ends := sc.classEnd
	if ci >= len(ends) {
		return true
	}
	lo := int32(0)
	if ci > 0 {
		lo = ends[ci-1]
	}
	// Feasibility: enough members remain from class ci on.
	if len(sc.classMem)-int(lo) < need {
		return true
	}
	members := sc.classMem[lo:ends[ci]]
	for take := 0; take <= min(len(members), need); take++ {
		if !s.classRec(ci+1, need-take, append(node, members[:take]...), fn) {
			return false
		}
	}
	return true
}
