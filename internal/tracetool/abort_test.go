package tracetool

import (
	"bytes"
	"context"
	"testing"
	"time"

	"cosched/internal/astar"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/telemetry"
	"cosched/internal/workload"
)

// degradedTrace runs a solve under an already-expired context so the
// anytime path fires: the trace must carry one abort event and a
// solution event echoing its reason.
func degradedTrace(t *testing.T) []byte {
	t.Helper()
	m := cache.QuadCore
	in, err := workload.SyntheticSerialInstance(12, &m, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var buf bytes.Buffer
	s, err := astar.NewSolver(g, astar.Options{
		H: astar.HPerProc, Condense: true, UseIncumbent: true,
		Ctx: ctx, Tracer: astar.NewEventTracer(telemetry.NewEmitter(telemetry.NewEventWriter(&buf)))})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded {
		t.Fatal("expired-context solve not degraded; fixture broken")
	}
	return buf.Bytes()
}

func TestCheckDegradedTracePasses(t *testing.T) {
	raw := degradedTrace(t)
	tr := loadOne(t, raw)
	if vs := Check(tr); len(vs) > 0 {
		t.Errorf("well-formed degraded trace failed check: %v", vs)
	}
	var aborts int
	for _, ev := range tr.Events {
		if ev.Ev == "abort" {
			aborts++
			if ev.Reason != "deadline" {
				t.Errorf("abort reason %q; want deadline", ev.Reason)
			}
		}
	}
	if aborts != 1 {
		t.Errorf("degraded trace carries %d abort events; want 1", aborts)
	}
	if sol := tr.solution(); sol == nil || sol.Reason != "deadline" {
		t.Errorf("solution does not echo the abort reason: %+v", sol)
	}
}

func TestCheckCorruptedAbort(t *testing.T) {
	raw := degradedTrace(t)

	// mutate exactly one line of the trace and re-check
	mutate := func(match, old, new string) []Violation {
		t.Helper()
		lines := bytes.Split(raw, []byte("\n"))
		out := make([][]byte, len(lines))
		hit := false
		for i, l := range lines {
			if !hit && bytes.Contains(l, []byte(match)) {
				l = bytes.Replace(l, []byte(old), []byte(new), 1)
				hit = true
			}
			out[i] = l
		}
		if !hit {
			t.Fatalf("fixture has no line matching %q", match)
		}
		return Check(loadOne(t, bytes.Join(out, []byte("\n"))))
	}

	// Unknown reason on the abort event: whitelist plus the echo rule.
	if vs := mutate(`"ev":"abort"`, `"reason":"deadline"`, `"reason":"bogus"`); !hasInvariant(vs, "abort-reason") {
		t.Errorf("unknown abort reason not caught: %v", vs)
	}
	// Solution claiming a different reason than the abort event.
	if vs := mutate(`"ev":"solution"`, `"reason":"deadline"`, `"reason":"memory"`); !hasInvariant(vs, "abort-reason") {
		t.Errorf("mismatched solution reason not caught: %v", vs)
	}

	// A second abort event: at most one allowed.
	var abortLine []byte
	for _, l := range bytes.Split(raw, []byte("\n")) {
		if bytes.Contains(l, []byte(`"ev":"abort"`)) {
			abortLine = l
			break
		}
	}
	if abortLine == nil {
		t.Fatal("fixture has no abort event")
	}
	doubled := append(append([]byte{}, raw...), append(abortLine, '\n')...)
	if vs := Check(loadOne(t, doubled)); !hasInvariant(vs, "abort-reason") {
		t.Errorf("duplicate abort event not caught: %v", vs)
	}

	// Dropping the abort event while the solution still claims one.
	var pruned [][]byte
	for _, l := range bytes.Split(raw, []byte("\n")) {
		if bytes.Contains(l, []byte(`"ev":"abort"`)) {
			continue
		}
		pruned = append(pruned, l)
	}
	if vs := Check(loadOne(t, bytes.Join(pruned, []byte("\n")))); !hasInvariant(vs, "abort-reason") {
		t.Errorf("orphan solution reason not caught: %v", vs)
	}
}
