package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestSameSeedSameCounts runs each workload twice on one seed and once on
// another: the counts (search counters, cache outcomes, answer quality)
// must repeat exactly, and a different seed must ask for different
// instances.
func TestSameSeedSameCounts(t *testing.T) {
	for name, fn := range workloads {
		if testing.Short() && name == "solve-large" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			const seconds = 1 // one cycle of a solver set, 50 requests of serve-mixed
			var reps []*report
			for _, seed := range []int64{3, 3, 4} {
				rep, err := fn(seed, seconds, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct() {
					t.Fatalf("seed %d: %d of %d answers failed (%v), invalid %q", seed, rep.failed, rep.attempted, rep.firstErr, rep.invalid)
				}
				reps = append(reps, rep)
			}
			if !reflect.DeepEqual(reps[0].counts, reps[1].counts) {
				t.Errorf("same seed, different counts:\n%v\n%v", reps[0].counts, reps[1].counts)
			}
			if !reflect.DeepEqual(reps[0].instances, reps[1].instances) {
				t.Errorf("same seed, different instances")
			}
			if reflect.DeepEqual(reps[0].instances, reps[2].instances) {
				t.Errorf("seeds 3 and 4 ask for the same instances %v", reps[0].instances)
			}
			for _, c := range []string{"astar.expanded", "astar.generated", "avg_degradation"} {
				if reps[0].counts[c] <= 0 {
					t.Errorf("%s = %v, want > 0", c, reps[0].counts[c])
				}
			}
		})
	}
}

// TestTracedOpSelfTimesSumToDuration checks the trace invariant: within
// each operation, the self times of the root and all its descendants add
// up to the root's duration.
func TestTracedOpSelfTimesSumToDuration(t *testing.T) {
	for _, name := range []string{"solve-exact", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			if _, err := workloads[name](5, 1, tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.spans) == 0 {
				t.Fatal("no spans recorded")
			}
			self := selfTimes(tr.spans)
			type opKey struct {
				op   int64
				root int
			}
			rootOf := map[int]int{}
			sums := map[opKey]float64{}
			for i, s := range tr.spans {
				root := i
				if s.Parent >= 0 {
					root = rootOf[s.Parent]
				}
				rootOf[s.ID] = root
				sums[opKey{s.Op, root}] += self[i]
			}
			names := map[string]bool{}
			for k, sum := range sums {
				root := tr.spans[k.root]
				names[root.Name] = true
				// Span ends are float microseconds; allow a nanosecond of
				// rounding per span.
				if math.Abs(sum-root.dur()) > 1e-3*float64(len(tr.spans)) {
					t.Errorf("op %d (%s): self times sum to %.3f us, op lasted %.3f us", k.op, root.Name, sum, root.dur())
				}
			}
			if name == "serve-mixed" && !names["request"] {
				t.Errorf("serve-mixed trace has no request-replay operations")
			}
		})
	}
}

func TestSelfTimesClipAndMergeChildren(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := tr.add(0, -1, "op", at(0), at(100))
	a := tr.add(0, root, "a", at(10), at(40))
	tr.add(0, root, "b", at(30), at(60)) // overlaps a: 10..60 covered once
	tr.add(0, a, "a1", at(5), at(20))    // starts before its parent: clipped to 10..20
	tr.add(0, root, "c", at(90), at(120))
	got := selfTimes(tr.spans)
	want := []float64{100 - 50 - 10, 30 - 10, 30, 15, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestCheckPartition(t *testing.T) {
	for _, tc := range []struct {
		groups [][]int
		ok     bool
	}{
		{[][]int{{1, 2}, {3, 4}}, true},
		{[][]int{{1, 2}, {2, 4}}, false},
		{[][]int{{1, 2, 3}, {4}}, false},
		{[][]int{{1, 2}}, false},
		{[][]int{{1, 2}, {3, 5}}, false},
	} {
		if err := checkPartition(tc.groups, 4, 2, 2); (err == nil) != tc.ok {
			t.Errorf("%v: err %v, want ok=%v", tc.groups, err, tc.ok)
		}
	}
}

func TestExactRefsCoverThePool(t *testing.T) {
	refs, err := exactRefs()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != exactPool {
		t.Fatalf("%d reference costs, want one per pool instance, %d", len(refs), exactPool)
	}
	for seed, c := range refs {
		if !(c > 0) {
			t.Errorf("instance %d: reference cost %v", seed, c)
		}
	}
}
