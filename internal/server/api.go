package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"cosched"
	"cosched/internal/solvecache"
)

// SolveRequest is the JSON body of /v1/solve and /v1/solve-robust, and
// one element of a /v1/batch request. At least one workload source —
// spec, synthetic or synthetic_large, used in that order — must be set,
// and none may exceed maxProcesses processes.
type SolveRequest struct {
	// Spec is an inline workload description (the cosched.SpecFile JSON
	// format, as accepted by coschedcli -specfile).
	Spec *cosched.SpecFile `json:"spec,omitempty"`
	// Synthetic asks for N synthetic serial jobs on the SDC cache model;
	// SyntheticLarge for N jobs on the O(u) additive pairwise oracle.
	Synthetic      int `json:"synthetic,omitempty"`
	SyntheticLarge int `json:"synthetic_large,omitempty"`
	// Seed drives the synthetic generators (0 means 1).
	Seed int64 `json:"seed,omitempty"`
	// Machine is the machine class for synthetic workloads ("dual",
	// "quad", "8core"; default quad). Spec workloads carry their own.
	Machine string `json:"machine,omitempty"`
	// Method and Accounting name the solver configuration ("oastar",
	// "hastar", "ip", "osvp", "pg", "brute" / "se", "pe", "pc"); empty
	// means the defaults (OA*, PC accounting).
	Method     string `json:"method,omitempty"`
	Accounting string `json:"accounting,omitempty"`
	// HStrategy, KPerLevel, HWeight, BeamWidth and IPConfig mirror the
	// cosched.Options fields of the same names.
	HStrategy int     `json:"h_strategy,omitempty"`
	KPerLevel int     `json:"k_per_level,omitempty"`
	HWeight   float64 `json:"h_weight,omitempty"`
	BeamWidth int     `json:"beam_width,omitempty"`
	IPConfig  string  `json:"ip_config,omitempty"`
	// DeadlineMS is this request's wall-clock budget in milliseconds,
	// counted from admission: time spent queued eats into it, and the
	// remainder becomes the solve's context deadline. 0 applies the
	// server's default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxExpansions and MemoryBudgetBytes mirror the cosched.Options
	// budget fields.
	MaxExpansions     int64 `json:"max_expansions,omitempty"`
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
	// Parallelism is the graph-search expansion-worker count for this
	// request: 0 applies the server's -solve-parallelism default, 1
	// forces the exact sequential path, higher values run the parallel
	// engine on eligible configurations. It does not enter the solution
	// cache key — worker count never changes the answer's cost.
	Parallelism int `json:"parallelism,omitempty"`
	// NoCache bypasses the solved-schedule cache for this request (it
	// neither reads nor populates it).
	NoCache bool `json:"no_cache,omitempty"`
	// Trace returns the solve's JSONL event stream in the response
	// (misses only — cached answers ran no solver).
	Trace bool `json:"trace,omitempty"`
	// Robust routes a /v1/batch element through the SolveRobust ladder
	// (ignored on /v1/solve and /v1/solve-robust, where the endpoint
	// decides).
	Robust bool `json:"robust,omitempty"`
}

// SolveResponse is the JSON answer to a successful solve.
type SolveResponse struct {
	// Cost is the schedule's total degradation (the paper's Eq. 6/13
	// objective); AvgCost the per-job average.
	Cost    float64 `json:"cost"`
	AvgCost float64 `json:"avg_cost"`
	// Groups is the partition as 1-based process IDs per machine;
	// Machines the same partition as job names.
	Groups   [][]int    `json:"groups"`
	Machines [][]string `json:"machines"`
	// Method names what produced the schedule ("robust" for the ladder).
	Method string `json:"method"`
	// Degraded reports a budget-breached best-effort answer, with
	// AbortReason saying which budget broke.
	Degraded    bool   `json:"degraded"`
	AbortReason string `json:"abort_reason,omitempty"`
	// Fallbacks records the SolveRobust ladder's attempts in order.
	Fallbacks []FallbackInfo `json:"fallbacks,omitempty"`
	// Cached reports a solution served from the solved-schedule cache
	// without running a solver; Shared one computed once for several
	// concurrent identical requests. Cached is always present so
	// clients (and the CI gate) can assert on both values.
	Cached bool `json:"cached"`
	Shared bool `json:"shared,omitempty"`
	// QueueMS is the time this request's own solve waited for a worker
	// (0 for a hit or a shared answer); SolveMS the solver wall-clock of
	// the answering run (the original run's, for cached answers).
	QueueMS float64 `json:"queue_ms"`
	SolveMS float64 `json:"solve_ms"`
	// TraceJSONL carries the solve's event stream when the request set
	// trace and the answer was freshly computed.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
	// RequestID is the request's identity (the X-Request-ID echo, in the
	// body for clients that drop headers); SolveID is the solver run that
	// produced the answer — the original run's for cached answers — the
	// join key into JSONL traces and coschedtrace timelines.
	RequestID string `json:"request_id,omitempty"`
	SolveID   uint64 `json:"solve_id,omitempty"`
}

// FallbackInfo is one SolveRobust ladder attempt on the wire: the
// record the solution cache stores, sent as is.
type FallbackInfo = solvecache.SolutionFallback

// RequestKey is the request's workload identity: a hex SHA-256 over the
// fields that decide which instance it builds — spec, synthetic,
// synthetic_large, seed (0 means 1) and machine (its canonical class
// name, so "" and "quad" agree). Requests with equal keys build the same
// instance, so the daemon keys its solution cache on RequestKey plus
// the options fingerprint and the endpoint, and the fleet client routes
// on it, sending every repeat of a workload to the replica whose cache
// holds the answer. The key is at least as fine as
// Instance.Fingerprint: equal instances may get different keys (a lost
// hit), never the reverse (a wrong answer). It stands for the generators'
// output, so a generator change that alters an instance must bump the
// spill log's record version.
func RequestKey(req *SolveRequest) string {
	machine := req.Machine
	if mk, err := cosched.ParseMachineKind(machine); err == nil {
		machine = mk.String()
	}
	h := sha256.New()
	json.NewEncoder(h).Encode(struct { //nolint:errcheck // hash writes cannot fail
		Spec           *cosched.SpecFile `json:"spec,omitempty"`
		Synthetic      int               `json:"synthetic"`
		SyntheticLarge int               `json:"synthetic_large"`
		Seed           int64             `json:"seed"`
		Machine        string            `json:"machine"`
	}{req.Spec, req.Synthetic, req.SyntheticLarge, req.workloadSeed(), machine})
	return hex.EncodeToString(h.Sum(nil))
}

// workloadSeed is the seed the synthetic generators get: 0 means 1.
func (req *SolveRequest) workloadSeed() int64 {
	if req.Seed == 0 {
		return 1
	}
	return req.Seed
}
