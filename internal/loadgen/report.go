package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// Report is the BENCH_serving.json document: one serving-benchmark run,
// self-describing (the command that produced it, the environment it ran
// in, and the measured numbers — here per ladder rung).
type Report struct {
	// BenchmarkCmd is the command line that produced this report.
	BenchmarkCmd string `json:"benchmark_cmd"`
	// Environment records where the numbers were measured; serving
	// latencies are meaningless without it.
	Environment Environment `json:"environment"`
	// Config echoes the load mix so a reader can regenerate the run.
	Config ReportConfig `json:"config"`
	// Rungs holds one result per ladder rung, in run order.
	Rungs []RungResult `json:"rungs"`
	// Fleet summarises the fleet client's work when the ladder ran
	// through coschedclient (-replicas); nil for a direct single-daemon
	// run.
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// FleetStats is the fleet client's whole-run accounting: how much
// retrying, hedging and failing-over it took to deliver the per-rung
// numbers. Mirrors coschedclient.Stats.
type FleetStats struct {
	// Requests is logical requests; Attempts physical HTTP calls
	// (Attempts ≥ Requests — the excess is retries and hedges).
	Requests int64 `json:"requests"`
	Attempts int64 `json:"attempts"`
	Retries  int64 `json:"retries"`
	// Hedges counts speculative duplicates; HedgeWins the ones that
	// answered first; Failovers successes served by a non-home replica;
	// Spillovers routes that skipped an open-circuited home.
	Hedges     int64 `json:"hedges"`
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	Spillovers int64 `json:"spillovers"`
	// Failures is logical requests with no usable answer;
	// DeadlineExhausted the subset that ran out of caller budget.
	Failures          int64 `json:"failures"`
	DeadlineExhausted int64 `json:"deadline_exhausted"`
	// Breaker transition counts, summed over backends.
	BreakerOpens     int64 `json:"breaker_opens"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerCloses    int64 `json:"breaker_closes"`
	// Replicas lists the backend base URLs the client routed across.
	Replicas []string `json:"replicas,omitempty"`
}

// Environment describes the measuring machine and the daemon's pool
// limits during the run.
type Environment struct {
	// CPUs and GOMAXPROCS bound what the daemon could possibly do in
	// parallel; Go and OSArch pin the toolchain.
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	// WorkersMin and WorkersMax are the daemon's autoscaler bounds
	// (equal for a fixed pool); 0 when attaching to a daemon whose
	// configuration the generator cannot see.
	WorkersMin int `json:"workers_min,omitempty"`
	WorkersMax int `json:"workers_max,omitempty"`
	// Note carries any caveat about reading the numbers (e.g. a
	// single-CPU builder measuring queueing, not parallel speedup).
	Note string `json:"note,omitempty"`
}

// ReportConfig echoes the generator settings that shaped the load.
type ReportConfig struct {
	// PoolSize, WarmFraction and Seed pin the warm/cold mix;
	// Synthetic, Method and DeadlineMS the per-request solve.
	PoolSize     int     `json:"pool"`
	WarmFraction float64 `json:"warm_fraction"`
	Seed         int64   `json:"seed"`
	Synthetic    int     `json:"synthetic"`
	Method       string  `json:"method"`
	DeadlineMS   int64   `json:"deadline_ms,omitempty"`
}

// LatencyMS summarises a rung's request latencies in milliseconds.
// Percentiles come from the HDR-style histogram (≈5% relative error,
// never under-reported); Mean and Max are exact.
type LatencyMS struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// StatusBreakdown counts a rung's responses by outcome class.
type StatusBreakdown struct {
	// OK is HTTP 200; Rejected429/503/504 are the daemon's admission
	// verdicts (queue full / draining / deadline expired in queue);
	// Other is any different HTTP status; Errors is transport failures
	// (connection refused, client timeout) that produced no status.
	OK          int64 `json:"ok"`
	Rejected429 int64 `json:"rejected_429"`
	Rejected503 int64 `json:"rejected_503"`
	Rejected504 int64 `json:"rejected_504"`
	Other       int64 `json:"other,omitempty"`
	Errors      int64 `json:"errors"`
}

// SlowRequest names one of a rung's slowest responses: the request ID
// to grep for in the daemon's access log, /debug/requests ring, or
// trace (`coschedtrace requests`), plus enough context to triage
// without leaving the report.
type SlowRequest struct {
	ID        string  `json:"id"`
	LatencyMS float64 `json:"latency_ms"`
	Status    int     `json:"status"`
	// Cached marks an answer served from the daemon's solution cache or
	// a shared in-flight solve — a slow cached answer points at queueing,
	// not the solver.
	Cached bool `json:"cached,omitempty"`
}

// RequestFailure samples one failed or rejected request. Status is the
// HTTP verdict; transport failures that produced no status carry Err
// instead.
type RequestFailure struct {
	ID     string `json:"id"`
	Status int    `json:"status,omitempty"`
	Err    string `json:"err,omitempty"`
}

// RungResult is one ladder rung's measurement.
type RungResult struct {
	// OfferedRPS and DurationS restate the rung; Requests is the number
	// of arrivals the open-loop schedule fired.
	OfferedRPS float64 `json:"offered_rps"`
	DurationS  float64 `json:"duration_s"`
	Requests   int64   `json:"requests"`
	// AchievedRPS is responses (any status) per second of rung
	// duration — the throughput the daemon actually delivered against
	// the offered rate.
	AchievedRPS float64 `json:"achieved_rps"`
	// Latency covers request round-trips that got an HTTP response.
	Latency LatencyMS `json:"latency_ms"`
	// Status classifies every fired request's outcome.
	Status StatusBreakdown `json:"status"`
	// CacheHits/Shared/CacheHitRate report how many 200s were served
	// from the daemon's solution cache or a shared in-flight solve;
	// Degraded counts budget-breached best-effort answers.
	CacheHits    int64   `json:"cache_hits"`
	Shared       int64   `json:"shared,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Degraded     int64   `json:"degraded"`
	// Slowest names the rung's slowest responses worst-first (at most
	// slowestK); Failures samples up to failureSampleCap non-200
	// outcomes. Both carry the request IDs the daemon logged, so a bad
	// rung is one grep away from its traces.
	Slowest  []SlowRequest    `json:"slowest,omitempty"`
	Failures []RequestFailure `json:"failures,omitempty"`
}

// Validate checks the report is internally consistent: at least one
// rung, every rung with arrivals and throughput, ordered percentiles,
// and outcome counts that add up to the request count. It is the
// substance of coschedload -check and the CI gate on BENCH_serving.json.
func (r *Report) Validate() error {
	if len(r.Rungs) == 0 {
		return fmt.Errorf("report has no rungs")
	}
	for i, rg := range r.Rungs {
		if rg.Requests <= 0 {
			return fmt.Errorf("rung %d: no requests fired", i)
		}
		if rg.AchievedRPS <= 0 {
			return fmt.Errorf("rung %d: achieved RPS %.3f; want > 0", i, rg.AchievedRPS)
		}
		l := rg.Latency
		if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999) {
			return fmt.Errorf("rung %d: latency percentiles not ordered: %+v", i, l)
		}
		total := rg.Status.OK + rg.Status.Rejected429 + rg.Status.Rejected503 +
			rg.Status.Rejected504 + rg.Status.Other + rg.Status.Errors
		if total != rg.Requests {
			return fmt.Errorf("rung %d: outcomes (%d) != requests (%d)", i, total, rg.Requests)
		}
		if rg.CacheHits+rg.Shared > rg.Status.OK {
			return fmt.Errorf("rung %d: cache hits+shared (%d) exceed OK responses (%d)",
				i, rg.CacheHits+rg.Shared, rg.Status.OK)
		}
		for j, s := range rg.Slowest {
			if s.ID == "" {
				return fmt.Errorf("rung %d: slowest[%d] has no request id", i, j)
			}
			if j > 0 && s.LatencyMS > rg.Slowest[j-1].LatencyMS {
				return fmt.Errorf("rung %d: slowest not ordered worst-first at %d", i, j)
			}
		}
	}
	if f := r.Fleet; f != nil {
		if f.Attempts < f.Requests {
			return fmt.Errorf("fleet: attempts (%d) < requests (%d)", f.Attempts, f.Requests)
		}
		if f.HedgeWins > f.Hedges {
			return fmt.Errorf("fleet: hedge wins (%d) exceed hedges (%d)", f.HedgeWins, f.Hedges)
		}
		if f.DeadlineExhausted > f.Failures {
			return fmt.Errorf("fleet: deadline-exhausted (%d) exceed failures (%d)",
				f.DeadlineExhausted, f.Failures)
		}
	}
	return nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads and decodes a BENCH_serving.json file (it does not
// validate; call Validate for that).
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
