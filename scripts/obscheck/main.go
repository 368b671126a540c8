// Command obscheck validates a coschedd structured access log for the
// CI observability gate: every line must parse as a JSON object
// carrying the full request-lifecycle field set, every non-batch line's
// phases must fit inside its total (queue_ms+solve_ms+encode_ms ≤
// total_ms), and each request ID named on the command line must appear
// in exactly one line. jq-free on purpose — the gate runs on bare
// builders.
//
// Usage:
//
//	obscheck -log access.log [id ...]
//
// Exit status 0 when the log validates and every named ID appears once.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// requiredFields is the access-log contract from SERVING.md: present on
// every line, whatever the request's outcome (zeroes for requests that
// never reached a worker).
var requiredFields = []string{
	"req_id", "route", "status",
	"queue_ms", "solve_ms", "encode_ms", "total_ms",
	"cache", "degraded", "abort", "parallelism", "fp", "solve_id",
}

// phaseSlackMS absorbs float rounding in the phase-sum check: each phase
// and the total are separately converted to milliseconds.
const phaseSlackMS = 0.01

func main() {
	logPath := flag.String("log", "", "access-log file to validate")
	flag.Parse()
	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -log is required")
		os.Exit(2)
	}
	f, err := os.Open(*logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
	defer f.Close() //nolint:errcheck

	seen := make(map[string]int)
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		lines++
		var entry map[string]any
		if err := json.Unmarshal(line, &entry); err != nil {
			fail("line %d is not JSON: %v\n%s", lines, err, line)
		}
		for _, field := range requiredFields {
			if _, ok := entry[field]; !ok {
				fail("line %d missing field %q: %s", lines, field, line)
			}
		}
		// A batch's items solve concurrently and its solve_ms sums them,
		// so only single requests must fit their phases in total_ms.
		if entry["route"] != "v1_batch" {
			num := func(k string) float64 { v, _ := entry[k].(float64); return v }
			if sum := num("queue_ms") + num("solve_ms") + num("encode_ms"); sum > num("total_ms")+phaseSlackMS {
				fail("line %d phases sum to %.3f ms, more than total_ms %.3f: %s", lines, sum, num("total_ms"), line)
			}
		}
		if id, _ := entry["req_id"].(string); id != "" {
			seen[id]++
		}
	}
	if err := sc.Err(); err != nil {
		fail("read %s: %v", *logPath, err)
	}
	if lines == 0 {
		fail("%s has no access-log lines", *logPath)
	}
	for _, id := range flag.Args() {
		if n := seen[id]; n != 1 {
			fail("request id %q appears in %d lines, want exactly 1", id, n)
		}
	}
	fmt.Printf("obscheck: %d lines validate, %d ids matched\n", lines, len(flag.Args()))
}

// fail prints the complaint and exits non-zero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obscheck: "+format+"\n", args...)
	os.Exit(1)
}
