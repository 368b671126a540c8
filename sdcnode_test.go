package cosched

import (
	"fmt"
	"reflect"
	"testing"

	"cosched/internal/degradation"
)

// perMemberOracle hides the SDC oracle's node-level path: the node memo
// asks it one member at a time, as it asks any other oracle.
type perMemberOracle struct{ degradation.Oracle }

// searchCounters is everything in Stats a solve's answer fixes, the wall
// clock left out.
func searchCounters(st Stats) []int64 {
	return []int64{st.VisitedPaths, st.Expanded, st.Generated, st.Dismissed, st.DismissedWorse,
		st.Condensed, st.Pruned, st.BeamTrimmed, st.InFrontier, int64(st.MaxQueue)}
}

// TestSDCNodePathMatchesPerMemberSolves solves the solve-exact population
// (OA*-PC on the Fig. 8 mixed batch) and the daemon's HA* serial batches
// twice, once with the SDC oracle answering each node from one
// competition and once member by member, and requires the same cost,
// groups and search counters. Ties between equal hit rates are common on
// the mixed batches, whose parallel jobs' ranks share one profile, so the
// node path's tie fallback is exercised too.
func TestSDCNodePathMatchesPerMemberSolves(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(seed int64) (*Instance, error)
		opts  Options
		seeds int64
	}{
		{"mixed16-oastar", func(s int64) (*Instance, error) { return SyntheticMixed(16, 6, 2, QuadCore, s) },
			Options{Method: MethodOAStar, Parallelism: 1}, 10},
		{"serial16-hastar", func(s int64) (*Instance, error) { return SyntheticSerial(16, QuadCore, s) },
			Options{Method: MethodHAStar, Parallelism: 1}, 10},
		{"serial28-hastar", func(s int64) (*Instance, error) { return SyntheticSerial(28, QuadCore, s) },
			Options{Method: MethodHAStar, Parallelism: 1}, 4},
	} {
		for seed := int64(1); seed <= tc.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				inst, err := tc.build(seed)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := inst.in.Oracle.(*degradation.SDCOracle); !ok {
					t.Fatalf("instance oracle is %T; want the SDC oracle", inst.in.Oracle)
				}
				in := *inst.in
				in.Oracle = perMemberOracle{inst.in.Oracle}
				node, err := Solve(inst, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				member, err := Solve(&Instance{in: &in}, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if node.TotalDegradation != member.TotalDegradation {
					t.Errorf("cost %v; per-member path %v", node.TotalDegradation, member.TotalDegradation)
				}
				if !reflect.DeepEqual(node.Groups(), member.Groups()) {
					t.Errorf("groups %v; per-member path %v", node.Groups(), member.Groups())
				}
				if a, b := searchCounters(node.Stats), searchCounters(member.Stats); !reflect.DeepEqual(a, b) {
					t.Errorf("search counters %v; per-member path %v", a, b)
				}
			})
		}
	}
}
