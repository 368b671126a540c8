package tracetool

import (
	"bytes"
	"strings"
	"testing"

	"cosched/internal/astar"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/ip"
	"cosched/internal/job"
	"cosched/internal/online"
	"cosched/internal/telemetry"
	"cosched/internal/workload"
)

// searchTrace runs a small solve with the JSONL tracer attached and
// returns the raw trace bytes.
func searchTrace(t *testing.T, n int, opts astar.Options) []byte {
	t.Helper()
	m := cache.QuadCore
	in, err := workload.SyntheticSerialInstance(n, &m, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
	var buf bytes.Buffer
	opts.Tracer = astar.NewEventTracer(telemetry.NewEmitter(telemetry.NewEventWriter(&buf)))
	s, err := astar.NewSolver(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func loadOne(t *testing.T, raw []byte) *Trace {
	t.Helper()
	traces, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	return traces[0]
}

func TestCheckCleanSearchTraces(t *testing.T) {
	for name, opts := range map[string]astar.Options{
		"OA*":   {H: astar.HPerProc, Condense: true, UseIncumbent: true},
		"O-SVP": {H: astar.HNone}, // uniform-cost search, as cosched runs O-SVP
		"HA*":   {H: astar.HPerProc, KPerLevel: 3, Condense: true, UseIncumbent: true},
		"beam":  {H: astar.HPerProcAvg, KPerLevel: 3, BeamWidth: 8},
	} {
		tr := loadOne(t, searchTrace(t, 12, opts))
		if tr.Method() != name {
			t.Errorf("%s: method = %q", name, tr.Method())
		}
		if vs := Check(tr); len(vs) > 0 {
			t.Errorf("%s: clean trace failed check: %v", name, vs)
		}
	}
}

func TestCheckCleanIPTrace(t *testing.T) {
	m := cache.QuadCore
	in, err := workload.SyntheticSerialInstance(8, &m, 3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ip.BuildModel(in.Cost(degradation.ModePC))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := ip.ConfigA
	cfg.Trace = telemetry.NewEmitter(telemetry.NewEventWriter(&buf))
	if _, err := ip.Solve(model, cfg); err != nil {
		t.Fatal(err)
	}
	tr := loadOne(t, buf.Bytes())
	if vs := Check(tr); len(vs) > 0 {
		t.Errorf("clean IP trace failed check: %v", vs)
	}
}

func TestCheckCleanOnlineTrace(t *testing.T) {
	m := cache.QuadCore
	in, err := workload.SyntheticSerialInstance(8, &m, 3)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]online.Arrival, 8)
	for i := range arrivals {
		arrivals[i] = online.Arrival{Job: job.JobID(i), Time: float64(i)}
	}
	var buf bytes.Buffer
	_, err = online.SimulateWithFaults(in.Cost(degradation.ModePC), in.SoloTime, 2,
		arrivals, online.FirstFit{}, online.Observer{Trace: telemetry.NewEmitter(telemetry.NewEventWriter(&buf))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := loadOne(t, buf.Bytes())
	if vs := Check(tr); len(vs) > 0 {
		t.Errorf("clean online trace failed check: %v", vs)
	}
}

// TestCheckCorruptedDismiss is the detection guarantee: tampering with a
// dismiss event must fail check with the named invariant.
func TestCheckCorruptedDismiss(t *testing.T) {
	raw := searchTrace(t, 12, astar.Options{H: astar.HPerProc, Condense: true, UseIncumbent: true})

	// Mutating one dismissal's reason trips dismiss-reason (the bogus
	// label) and dismiss-count (the per-reason tallies no longer match
	// the stats event).
	mangled := bytes.Replace(raw, []byte(`"reason":"worse"`), []byte(`"reason":"bogus"`), 1)
	if bytes.Equal(mangled, raw) {
		t.Fatal("fixture has no worse-dismissal to corrupt")
	}
	vs := Check(loadOne(t, mangled))
	if !hasInvariant(vs, "dismiss-reason") || !hasInvariant(vs, "dismiss-count") {
		t.Errorf("corrupted dismiss reason not caught: %v", vs)
	}

	// Deleting a dismiss line entirely trips dismiss-count alone.
	lines := bytes.Split(raw, []byte("\n"))
	var pruned [][]byte
	dropped := false
	for _, l := range lines {
		if !dropped && bytes.Contains(l, []byte(`"ev":"dismiss"`)) {
			dropped = true
			continue
		}
		pruned = append(pruned, l)
	}
	if !dropped {
		t.Fatal("fixture has no dismiss event to drop")
	}
	vs = Check(loadOne(t, bytes.Join(pruned, []byte("\n"))))
	if !hasInvariant(vs, "dismiss-count") {
		t.Errorf("dropped dismiss event not caught: %v", vs)
	}
}

func TestCheckCorruptedStatsAndSolution(t *testing.T) {
	raw := searchTrace(t, 12, astar.Options{H: astar.HPerProc, Condense: true, UseIncumbent: true})

	// Inflating the generated counter breaks the admission identity.
	mangled := bytes.Replace(raw, []byte(`"generated":`), []byte(`"generated":9`), 1)
	vs := Check(loadOne(t, mangled))
	if !hasInvariant(vs, "admission-identity") {
		t.Errorf("corrupted stats not caught: %v", vs)
	}

	// A schedule losing process 1 breaks the partition.
	mangled = bytes.Replace(raw, []byte(`"groups":[[1,`), []byte(`"groups":[[2,`), 1)
	if bytes.Equal(mangled, raw) {
		t.Fatal("fixture solution does not open with process 1")
	}
	vs = Check(loadOne(t, mangled))
	if !hasInvariant(vs, "solution-groups") {
		t.Errorf("corrupted solution groups not caught: %v", vs)
	}
}

// TestCheckParallelTraceRelaxesOrder pins the parallel-trace contract:
// concurrent expansion workers interleave their pops, so the f-monotone
// rule applies only when solve_start records a single worker, while the
// total-based rules keep holding either way.
func TestCheckParallelTraceRelaxesOrder(t *testing.T) {
	// A real parallel solve must record its worker count and check clean.
	par := loadOne(t, searchTrace(t, 12, astar.Options{
		H: astar.HPerProc, Condense: true, UseIncumbent: true, Parallelism: 4,
	}))
	if st := par.start(); st == nil || st.Parallelism != 4 {
		t.Fatalf("parallel solve_start did not record 4 workers: %+v", st)
	}
	if vs := Check(par); len(vs) > 0 {
		t.Errorf("clean parallel trace failed check: %v", vs)
	}

	// Force an f-order regression in a sequential trace: inflating one
	// non-goal expansion's g makes the following pop's f strictly lower.
	seq := loadOne(t, searchTrace(t, 12, astar.Options{
		H: astar.HPerProc, Condense: true, UseIncumbent: true,
	}))
	mangled := false
	for i := range seq.Events {
		if ev := &seq.Events[i]; ev.Ev == "expand" && ev.Leader != 0 {
			ev.G += 1000
			mangled = true
			break
		}
	}
	if !mangled {
		t.Fatal("fixture has no non-goal expand event to corrupt")
	}
	if vs := Check(seq); !hasInvariant(vs, "f-monotone") {
		t.Errorf("sequential out-of-order pops not caught: %v", vs)
	}
	// The same stream labelled O-SVP is held to the same rule: a
	// uniform-cost search pops g in order.
	seq.start().Method = "O-SVP"
	if vs := Check(seq); !hasInvariant(vs, "f-monotone") {
		t.Errorf("O-SVP out-of-order pops not caught: %v", vs)
	}
	// The identical stream labelled as a 4-worker solve tolerates the
	// interleaving — order rules are relaxed, not the totals.
	seq.start().Parallelism = 4
	if vs := Check(seq); hasInvariant(vs, "f-monotone") {
		t.Errorf("parallel-labelled trace still flagged f-monotone: %v", vs)
	}
}

func hasInvariant(vs []Violation, name string) bool {
	for _, v := range vs {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

func TestLoadTruncatedTrace(t *testing.T) {
	raw := searchTrace(t, 8, astar.Options{H: astar.HPerProc, Condense: true, UseIncumbent: true})
	// Cut the trace mid-way through its final line: stats and solution
	// are gone and the last line is torn.
	cut := raw[:len(raw)*2/3]
	traces, err := Load(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || !traces[0].Truncated {
		t.Fatalf("truncated stream not flagged: %d traces", len(traces))
	}
	if vs := Check(traces[0]); len(vs) > 0 {
		t.Errorf("truncated trace reported violations: %v", vs)
	}
	// Garbage that is not JSON at all still errors.
	if _, err := Load(strings.NewReader("not json\n")); err == nil {
		t.Error("pure garbage accepted")
	}
}

func TestRingSnapshotIsTruncatedNotBroken(t *testing.T) {
	raw := searchTrace(t, 8, astar.Options{H: astar.HPerProc, UseIncumbent: true})
	events, err := telemetry.ReadEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	// A flight-recorder dump mid-solve: the head (solve_start and the
	// early pops) rotated out of the ring.
	tail := events[len(events)/2:]
	for _, ev := range tail {
		if ev.Ev == "solve_start" {
			t.Fatal("tail window still holds solve_start; slice later")
		}
	}
	traces := Split(tail)
	if len(traces) != 1 || !traces[0].Truncated {
		t.Fatalf("tail window not marked truncated: %+v", traces)
	}
	if vs := Check(traces[0]); len(vs) > 0 {
		t.Errorf("tail window reported violations: %v", vs)
	}
	// But a trace that merely lost its solve_start line (starts at pop 1)
	// is broken, not truncated.
	headless := Split(events[1:])
	if len(headless) != 1 || headless[0].Truncated {
		t.Fatalf("headless full trace misclassified as truncated")
	}
	if !hasInvariant(Check(headless[0]), "missing-solve-start") {
		t.Error("headless full trace did not fail missing-solve-start")
	}
}

func TestSplitSeparatesSolves(t *testing.T) {
	a := searchTrace(t, 8, astar.Options{H: astar.HPerProc, UseIncumbent: true})
	b := searchTrace(t, 8, astar.Options{H: astar.HPerProc, KPerLevel: 2, UseIncumbent: true})
	traces, err := Load(bytes.NewReader(append(append([]byte{}, a...), b...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	if traces[0].ID == traces[1].ID {
		t.Error("solve ids collide")
	}
	if traces[0].Method() != "OA*" || traces[1].Method() != "HA*" {
		t.Errorf("methods = %q, %q", traces[0].Method(), traces[1].Method())
	}
}

func TestSummaryAndTimelineRender(t *testing.T) {
	tr := loadOne(t, searchTrace(t, 12, astar.Options{H: astar.HPerProc, Condense: true, UseIncumbent: true}))
	var sum bytes.Buffer
	if err := WriteSummary(&sum, tr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"method OA*", "visited", "generated", "expansions by depth", "cost"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}
	var tl bytes.Buffer
	if err := WriteTimeline(&tl, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "popped g (g) and h estimate (h) vs pop") {
		t.Errorf("timeline missing g/h chart:\n%s", tl.String())
	}
}

func TestDiffDetectsCostMismatch(t *testing.T) {
	oa := loadOne(t, searchTrace(t, 12, astar.Options{H: astar.HPerProc, Condense: true, UseIncumbent: true}))
	same := loadOne(t, searchTrace(t, 12, astar.Options{H: astar.HPerProc, Condense: true, UseIncumbent: true}))
	rep := Diff(oa, same)
	if rep.CostMismatch {
		t.Error("identical solves flagged as cost mismatch")
	}
	ha := loadOne(t, searchTrace(t, 12, astar.Options{H: astar.HPerProcAvg, HWeight: 1.5, KPerLevel: 2, BeamWidth: 4}))
	rep = Diff(oa, ha)
	if sa, sb := oa.solution(), ha.solution(); sa.Cost != sb.Cost && !rep.CostMismatch {
		t.Error("differing costs not flagged")
	}
	var buf bytes.Buffer
	if err := WriteDiff(&buf, oa, ha, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "counter") || !strings.Contains(buf.String(), "cost") {
		t.Errorf("diff table malformed:\n%s", buf.String())
	}
}
