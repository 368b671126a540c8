package astar

import (
	"math"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
	"cosched/internal/workload"
)

func TestNodeCostsMatchOracle(t *testing.T) {
	m := cache.QuadCore
	in, err := workload.SyntheticSerialInstance(8, &m, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cost(degradation.ModePC)
	g := graph.New(c, nil)
	s, err := NewSolver(g, Options{H: HPerProc})
	if err != nil {
		t.Fatal(err)
	}
	node := []job.ProcID{1, 3, 5, 7}
	costs := s.nodeCosts(node)
	for i, p := range node {
		var co []job.ProcID
		co = append(co, node[:i]...)
		co = append(co, node[i+1:]...)
		want := c.ProcCost(p, co)
		if math.Abs(costs[i]-want) > 1e-12 {
			t.Errorf("nodeCosts[%d] = %v; want %v", i, costs[i], want)
		}
	}
}
