package cosched

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"cosched/internal/telemetry"
	"cosched/internal/tracetool"
)

func buildSmallInstance(t *testing.T) *Instance {
	t.Helper()
	w := NewWorkload()
	for _, n := range []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"} {
		w.AddSerial(n)
	}
	inst, err := w.Build(QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSolveAllMethodsAgreeOnCostOrdering(t *testing.T) {
	inst := buildSmallInstance(t)
	costs := map[Method]float64{}
	for _, m := range []Method{MethodOAStar, MethodHAStar, MethodIP, MethodOSVP, MethodPG, MethodBruteForce} {
		s, err := Solve(inst, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if s.NumMachines() != 2 {
			t.Errorf("%v: machines = %d; want 2", m, s.NumMachines())
		}
		costs[m] = s.TotalDegradation
	}
	opt := costs[MethodBruteForce]
	for _, m := range []Method{MethodOAStar, MethodIP, MethodOSVP} {
		if math.Abs(costs[m]-opt) > 1e-6 {
			t.Errorf("%v cost %v != optimum %v", m, costs[m], opt)
		}
	}
	for _, m := range []Method{MethodHAStar, MethodPG} {
		if costs[m] < opt-1e-9 {
			t.Errorf("%v cost %v below optimum %v", m, costs[m], opt)
		}
	}
}

// TestSolveParallelismOption: the public Parallelism knob must not
// change the optimal cost, must be rejected when negative, and the
// schedule's Stats must record what actually ran.
func TestSolveParallelismOption(t *testing.T) {
	inst := buildSmallInstance(t)
	base, err := Solve(inst, Options{Method: MethodOAStar, HStrategy: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Parallelism != 1 {
		t.Errorf("sequential solve recorded parallelism %d", base.Stats.Parallelism)
	}
	// Every h runs on the parallel engine at the sequential cost, and the
	// automatic one (0) is the per-process bound at every parallelism.
	for h := 0; h <= 3; h++ {
		for _, p := range []int{0, 1, 2, 4} {
			var buf bytes.Buffer
			s, err := Solve(inst, Options{Method: MethodOAStar, HStrategy: h, Parallelism: p, EventTraceWriter: &buf})
			if err != nil {
				t.Fatalf("h %d, parallelism %d: %v", h, p, err)
			}
			if math.Abs(s.TotalDegradation-base.TotalDegradation) > 1e-9 {
				t.Errorf("h %d, parallelism %d changed cost %v -> %v", h, p, base.TotalDegradation, s.TotalDegradation)
			}
			if p > 1 && s.Stats.Parallelism != p {
				t.Errorf("h %d: requested parallelism %d, stats recorded %d", h, p, s.Stats.Parallelism)
			}
			events, err := telemetry.ReadEvents(&buf)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(events, func(ev telemetry.Event) bool { return ev.Ev == "solve_start" })
			if i < 0 {
				t.Fatalf("h %d, parallelism %d: no solve_start event", h, p)
			}
			if name := events[i].HName; (h == 0 || h == 3) && name != "perproc" {
				t.Errorf("h %d, parallelism %d ran %q; want perproc", h, p, name)
			}
		}
	}
	if _, err := Solve(inst, Options{Parallelism: -1}); err == nil {
		t.Error("negative Parallelism accepted")
	}
}

func TestSolveMixedWorkload(t *testing.T) {
	w := NewWorkload()
	w.AddSerial("art")
	w.AddSerial("EP")
	w.AddSerial("vpr")
	w.AddPE("MCM", 2)
	w.AddPC("MG-Par", 3)
	inst, err := w.Build(QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Solve(inst, Options{Method: MethodOAStar})
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalDegradation <= 0 {
		t.Errorf("total degradation = %v; want > 0", sched.TotalDegradation)
	}
	degs := sched.JobDegradations()
	if len(degs) != 5 {
		t.Errorf("JobDegradations has %d entries: %v", len(degs), degs)
	}
	// the per-job values must sum to the objective
	var sum float64
	for _, d := range degs {
		sum += d
	}
	if math.Abs(sum-sched.TotalDegradation) > 1e-9 {
		t.Errorf("per-job sum %v != total %v", sum, sched.TotalDegradation)
	}
}

func TestAccountingModesOrdering(t *testing.T) {
	w := NewWorkload()
	w.AddPC("CG-Par", 4)
	w.AddSerial("art")
	w.AddSerial("EP")
	w.AddSerial("IS")
	w.AddSerial("vpr")
	inst, err := w.Build(QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Solve(inst, Options{Method: MethodOAStar, Accounting: AccountPC})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := Solve(inst, Options{Method: MethodOAStar, Accounting: AccountPE})
	if err != nil {
		t.Fatal(err)
	}
	// The PC objective includes communication, so its optimum cannot be
	// below the PE optimum of the same batch.
	if pc.TotalDegradation < pe.TotalDegradation-1e-9 {
		t.Errorf("PC optimum %v below PE optimum %v", pc.TotalDegradation, pe.TotalDegradation)
	}
}

func TestWorkloadErrorsSurfaceAtBuild(t *testing.T) {
	w := NewWorkload()
	w.AddSerial("not-a-benchmark")
	if _, err := w.Build(QuadCore); err == nil {
		t.Error("unknown program accepted")
	}
	w2 := NewWorkload()
	w2.AddPE("nope", 2)
	if _, err := w2.Build(QuadCore); err == nil {
		t.Error("unknown PE program accepted")
	}
	w3 := NewWorkload()
	w3.AddPC("nope", 2)
	if _, err := w3.Build(QuadCore); err == nil {
		t.Error("unknown PC program accepted")
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Error("nil instance accepted")
	}
	inst := buildSmallInstance(t)
	if _, err := Solve(inst, Options{Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Solve(inst, Options{Method: MethodIP, IPConfig: "nope"}); err == nil {
		t.Error("unknown IP config accepted")
	}
}

func TestScheduleRendering(t *testing.T) {
	inst := buildSmallInstance(t)
	sched, err := Solve(inst, Options{Method: MethodHAStar})
	if err != nil {
		t.Fatal(err)
	}
	out := sched.String()
	for _, want := range []string{"machine", "total degradation", "BT"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	pl := sched.Placements()
	if len(pl) != 8 {
		t.Errorf("placements = %d; want 8", len(pl))
	}
	seen := map[int]bool{}
	for _, p := range pl {
		if p.Machine < 0 || p.Machine >= 2 || p.Core < 0 || p.Core >= 4 {
			t.Errorf("placement out of range: %+v", p)
		}
		if seen[p.Process] {
			t.Errorf("process %d placed twice", p.Process)
		}
		seen[p.Process] = true
	}
	groups := sched.Groups()
	if len(groups) != 2 || len(groups[0]) != 4 {
		t.Errorf("Groups() = %v", groups)
	}
}

func TestSyntheticConstructors(t *testing.T) {
	for _, mk := range []MachineKind{DualCore, QuadCore, EightCore} {
		inst, err := SyntheticSerial(mk.Cores()*3, mk, 7)
		if err != nil {
			t.Fatalf("%v: %v", mk, err)
		}
		if inst.NumProcesses() != mk.Cores()*3 {
			t.Errorf("%v: procs = %d", mk, inst.NumProcesses())
		}
	}
	large, err := SyntheticLarge(96, QuadCore, 7)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Solve(large, Options{Method: MethodHAStar})
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumMachines() != 24 {
		t.Errorf("large HA*: machines = %d; want 24", sched.NumMachines())
	}
	mixed, err := SyntheticMixed(16, 2, 4, QuadCore, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.NumJobs() != 2+8 {
		t.Errorf("mixed jobs = %d; want 10", mixed.NumJobs())
	}
}

func TestSimulate(t *testing.T) {
	inst := buildSmallInstance(t)
	opt, err := Solve(inst, Options{Method: MethodOAStar})
	if err != nil {
		t.Fatal(err)
	}
	pgSched, err := Solve(inst, Options{Method: MethodPG})
	if err != nil {
		t.Fatal(err)
	}
	execOpt, err := opt.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	execPG, err := pgSched.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if execOpt.Makespan <= 0 || execOpt.MeanJobFinish <= 0 {
		t.Errorf("degenerate execution: %+v", execOpt)
	}
	if len(execOpt.JobFinish) != 8 {
		t.Errorf("JobFinish entries = %d; want 8", len(execOpt.JobFinish))
	}
	if len(execOpt.MachineBusy) != opt.NumMachines() {
		t.Errorf("MachineBusy entries = %d; want %d", len(execOpt.MachineBusy), opt.NumMachines())
	}
	// A schedule with lower objective should not lose substantially
	// more wall-clock time than a worse one.
	if execOpt.SlowdownSeconds > execPG.SlowdownSeconds*1.1 {
		t.Errorf("optimal schedule lost %.1fs; PG lost %.1fs", execOpt.SlowdownSeconds, execPG.SlowdownSeconds)
	}
}

func TestMachineKindStrings(t *testing.T) {
	if DualCore.String() != "dual-core" || QuadCore.Cores() != 4 || EightCore.Cores() != 8 {
		t.Error("machine kind metadata wrong")
	}
	if !strings.Contains(MachineKind(9).String(), "9") {
		t.Error("unknown machine kind string")
	}
}

func TestMethodStrings(t *testing.T) {
	for m, want := range map[Method]string{
		MethodOAStar: "OA*", MethodHAStar: "HA*", MethodIP: "IP",
		MethodOSVP: "O-SVP", MethodPG: "PG", MethodBruteForce: "brute-force",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q; want %q", m, m.String(), want)
		}
	}
}

func TestProgramCatalogues(t *testing.T) {
	if len(SerialPrograms()) != 16 || len(PEPrograms()) != 5 || len(PCPrograms()) != 4 {
		t.Error("catalogue sizes wrong")
	}
}

func TestJobNames(t *testing.T) {
	inst := buildSmallInstance(t)
	names := inst.JobNames()
	if len(names) != 8 || names[0] != "BT" {
		t.Errorf("JobNames = %v", names)
	}
}

func TestCompare(t *testing.T) {
	inst := buildSmallInstance(t)
	cmp := Compare(inst, nil, Options{})
	if len(cmp.Rows) != 3 {
		t.Fatalf("rows = %d; want 3 defaults", len(cmp.Rows))
	}
	best := cmp.Best()
	if best == nil {
		t.Fatal("no successful method")
	}
	if best.Method != MethodOAStar {
		t.Errorf("best method = %v; want OA* (it is optimal)", best.Method)
	}
	out := cmp.String()
	for _, want := range []string{"OA*", "HA*", "PG", "total deg."} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison rendering missing %q", want)
		}
	}
	// A failing method is reported, not fatal.
	cmp2 := Compare(inst, []Method{Method(99)}, Options{})
	if cmp2.Rows[0].Err == nil {
		t.Error("unknown method did not error")
	}
	if cmp2.Best() != nil {
		t.Error("Best() returned a failed row")
	}
	if !strings.Contains(cmp2.String(), "failed") {
		t.Error("failure not rendered")
	}
}

func TestSimulateUsesPhysicalModel(t *testing.T) {
	// An SE-optimised schedule must be judged under the full model: for
	// a batch with communicating jobs its simulated slowdown can only
	// be >= the PC-optimised schedule's.
	w := NewWorkload()
	w.AddPC("MG-Par", 4)
	w.AddSerial("art")
	w.AddSerial("EP")
	w.AddSerial("vpr")
	w.AddSerial("IS")
	inst, err := w.Build(QuadCore)
	if err != nil {
		t.Fatal(err)
	}
	se, err := Solve(inst, Options{Method: MethodOAStar, Accounting: AccountSE})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Solve(inst, Options{Method: MethodOAStar, Accounting: AccountPC})
	if err != nil {
		t.Fatal(err)
	}
	execSE, err := se.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	execPC, err := pc.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if execSE.SlowdownSeconds < execPC.SlowdownSeconds-1e-9 {
		t.Errorf("SE-optimised schedule simulated better (%v) than PC-optimised (%v)",
			execSE.SlowdownSeconds, execPC.SlowdownSeconds)
	}
}

func TestWriteGraphDOT(t *testing.T) {
	w := NewWorkload()
	for _, n := range []string{"BT", "CG", "EP", "FT", "IS", "LU"} {
		w.AddSerial(n)
	}
	inst, err := w.Build(DualCore)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Solve(inst, Options{Method: MethodOAStar})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := inst.WriteGraphDOT(&sb, sched, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph cosched") {
		t.Error("DOT output malformed")
	}
	if !strings.Contains(sb.String(), "lightblue") {
		t.Error("schedule not highlighted")
	}
	// large graphs must refuse
	big, err := SyntheticSerial(40, QuadCore, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.WriteGraphDOT(&sb, nil, 100); err == nil {
		t.Error("oversized graph rendered")
	}
}

// TestSolvePhasesAndEventSink pins the observability contract of Solve:
// every call reports a per-phase wall-clock breakdown, and a configured
// EventSink receives the full trace stream (fanned out with
// EventTraceWriter when both are set) under one shared solve id.
func TestSolvePhasesAndEventSink(t *testing.T) {
	inst := buildSmallInstance(t)
	var buf bytes.Buffer
	fr := telemetry.NewFlightRecorder(64)
	sched, err := Solve(inst, Options{
		Method:           MethodOAStar,
		EventTraceWriter: &buf,
		EventSink:        fr,
	})
	if err != nil {
		t.Fatal(err)
	}

	phases := map[string]bool{}
	for _, ph := range sched.Stats.Phases {
		if ph.Duration < 0 {
			t.Errorf("phase %q has negative duration %v", ph.Name, ph.Duration)
		}
		phases[ph.Name] = true
	}
	for _, want := range []string{"oracle", "graph", "prepare", "search"} {
		if !phases[want] {
			t.Errorf("Stats.Phases missing %q (got %+v)", want, sched.Stats.Phases)
		}
	}

	events, err := telemetry.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("EventTraceWriter got no events")
	}
	id := events[0].SolveID
	if id == 0 {
		t.Error("solve_id not stamped")
	}
	var sawSolution bool
	for i, ev := range events {
		if ev.SolveID != id {
			t.Fatalf("event %d solve_id %d != %d", i, ev.SolveID, id)
		}
		if ev.Ev == "solution" {
			sawSolution = true
			if math.Abs(ev.Cost-sched.TotalDegradation) > 1e-9 {
				t.Errorf("solution event cost %v != schedule cost %v", ev.Cost, sched.TotalDegradation)
			}
		}
	}
	if !sawSolution {
		t.Error("trace has no solution event")
	}
	if got := fr.Len(); got == 0 {
		t.Error("EventSink leg of the fan-out received nothing")
	}

	// The IP pipeline reports its own phase split and shares the sink.
	var ipBuf bytes.Buffer
	ipSched, err := Solve(inst, Options{Method: MethodIP, EventTraceWriter: &ipBuf})
	if err != nil {
		t.Fatal(err)
	}
	ipPhases := map[string]bool{}
	for _, ph := range ipSched.Stats.Phases {
		ipPhases[ph.Name] = true
	}
	for _, want := range []string{"oracle", "model", "search"} {
		if !ipPhases[want] {
			t.Errorf("IP Stats.Phases missing %q (got %+v)", want, ipSched.Stats.Phases)
		}
	}
	ipEvents, err := telemetry.ReadEvents(&ipBuf)
	if err != nil {
		t.Fatal(err)
	}
	var ipStart *telemetry.Event
	for i, ev := range ipEvents {
		if ev.Ev == "solve_start" {
			ipStart = &ipEvents[i]
			break
		}
	}
	if ipStart == nil || ipStart.Method != "ip:bnb-best+round" {
		t.Fatalf("IP trace has no ip solve_start: %+v", ipEvents)
	}
	if ipStart.SolveID == id {
		t.Error("distinct Solve calls shared a solve_id")
	}

	// Phases come for free: no trace configured still yields a breakdown.
	plain, err := Solve(inst, Options{Method: MethodHAStar})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Stats.Phases) == 0 {
		t.Error("Stats.Phases empty without telemetry configured")
	}
}

// TestPGAndBruteForceTraces pins the trace of the two solvers with no
// search events of their own: a solve_start header, an abort when the
// context had already expired, a zero-counter stats event, and a
// solution carrying the schedule's cost and echoing the abort reason.
// Those traces must pass coschedtrace check, whose partition-validity
// and abort-reason rules then cover PG and brute force too.
func TestPGAndBruteForceTraces(t *testing.T) {
	inst := buildSmallInstance(t)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, m := range []Method{MethodPG, MethodBruteForce} {
		for _, tc := range []struct {
			name   string
			ctx    context.Context
			reason string
		}{{"completed", context.Background(), ""}, {"expired", expired, "deadline"}} {
			var buf bytes.Buffer
			sched, err := SolveContext(tc.ctx, inst, Options{Method: m, EventTraceWriter: &buf})
			if err != nil {
				t.Fatalf("%v %s: %v", m, tc.name, err)
			}
			if got := sched.Stats.AbortReason.String(); got != tc.reason {
				t.Fatalf("%v %s: abort reason %q, want %q", m, tc.name, got, tc.reason)
			}
			traces, err := tracetool.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(traces) != 1 {
				t.Fatalf("%v %s: %d traces, want 1", m, tc.name, len(traces))
			}
			tr := traces[0]
			if tr.Method() != m.String() {
				t.Errorf("%v %s: trace method %q", m, tc.name, tr.Method())
			}
			if vs := tracetool.Check(tr); len(vs) > 0 {
				t.Errorf("%v %s: trace failed check: %v", m, tc.name, vs)
			}
			var kinds []string
			for _, ev := range tr.Events {
				switch ev.Ev {
				case "span_start", "span_end":
					continue
				case "solution":
					if math.Abs(ev.Cost-sched.TotalDegradation) > 1e-9 {
						t.Errorf("%v %s: solution cost %v != schedule cost %v",
							m, tc.name, ev.Cost, sched.TotalDegradation)
					}
					if ev.Reason != tc.reason {
						t.Errorf("%v %s: solution reason %q, want %q", m, tc.name, ev.Reason, tc.reason)
					}
				}
				kinds = append(kinds, ev.Ev)
			}
			want := "solve_start,stats,solution"
			if tc.reason != "" {
				want = "solve_start,abort,stats,solution"
			}
			if got := strings.Join(kinds, ","); got != want {
				t.Errorf("%v %s: solver events %s, want %s", m, tc.name, got, want)
			}
		}
	}
}
