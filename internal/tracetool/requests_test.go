package tracetool

import (
	"bytes"
	"strings"
	"testing"

	"cosched/internal/telemetry"
)

// TestWriteRequestsRendersRecords: request events filed under a solve
// and under the ambient trace both render, in start order, with the
// parallelism and fingerprint columns /debug/requests shows, and only
// the slow one carries the slow mark.
func TestWriteRequestsRendersRecords(t *testing.T) {
	traces := Split([]telemetry.Event{
		{Ev: "request", TMS: 20, ReqID: "late-bad", Route: "v1_solve", Status: 400, TotalMS: 0.1},
		{Ev: "request", TMS: 10, SolveID: 7, ReqID: "early-miss", Route: "v1_solve", Status: 200,
			QueueMS: 1, SolveMS: 300, EncodeMS: 0.5, TotalMS: 302, Cache: "miss",
			Parallelism: 4, FP: "49ce056d8e81"},
	})
	var buf bytes.Buffer
	if err := WriteRequests(&buf, traces, 250); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines; want title, header and 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "requests: 2") {
		t.Errorf("title = %q; want the request count", lines[0])
	}
	for _, col := range []string{"par", "fp", "solve_id"} {
		if !strings.Contains(lines[1], col) {
			t.Errorf("header lacks %q: %q", col, lines[1])
		}
	}
	early := strings.Fields(lines[2])
	if len(early) < 2 || early[1] != "early-miss" {
		t.Fatalf("first row = %q; want the earlier request", lines[2])
	}
	for _, want := range []string{"miss", "4", "49ce056d8e81", "7", "*"} {
		found := false
		for _, f := range early {
			found = found || f == want
		}
		if !found {
			t.Errorf("row %q lacks field %q", lines[2], want)
		}
	}
	if strings.HasSuffix(lines[3], "*") {
		t.Errorf("fast request marked slow: %q", lines[3])
	}
}
