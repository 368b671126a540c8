// Package telemetry is the solver-observability layer: a small
// counter/gauge/histogram registry with an atomic, allocation-free update
// path, a structured JSONL event stream, per-phase spans on a monotonic
// clock, a fixed-size lock-free flight recorder, a rate-limited progress
// reporter, a hand-rolled Prometheus text encoder, and an opt-in
// expvar + net/http/pprof debug endpoint.
//
// Every solver in this repository (OA*/HA* in internal/astar, the IP
// branch-and-bound in internal/ip, the O-SVP and PG baselines, the online
// simulator in internal/online) can publish its per-phase counters and
// rates into a Registry, which makes a long-running search observable
// while it runs instead of only through the final Stats struct. The
// design follows the load/metric introspection argument of the
// memory-aware parallel branch-and-bound literature (Silva et al.,
// arXiv:1302.5679): search-tree executions become tunable at scale only
// when their internal rates are visible.
//
// # Zero overhead when disabled
//
// Telemetry is off by default and must stay invisible to the search hot
// path (the dismissed-child path of internal/astar is guarded at 0
// allocations by bench_hotpath_test.go). The contract has three parts:
//
//  1. A nil *Registry disables everything; producers guard with a single
//     pointer test resolved once per solve, never per child.
//  2. Metric handles (Counter, Gauge, ...) are resolved by name once, at
//     solve start; updates afterwards are plain atomic operations on
//     preallocated cells — no map lookups, no interface calls, no
//     allocation.
//  3. Hot loops do not update the registry per event: internal/astar
//     accumulates into its stack-local Stats and flushes deltas into the
//     registry every few thousand pops, so the per-child cost is an
//     ordinary integer increment whether telemetry is on or off.
//
// # Surfaces
//
// The consumers sitting on top of a Registry and the event stream:
//
//   - Registry.Snapshot / PublishExpvar expose the current values as one
//     expvar map, and ServeDebug / ServeDebugWith serve /debug/vars,
//     /debug/pprof, /metrics (Prometheus text format via
//     WritePrometheus), and optionally /debug/trace on an opt-in
//     address (the -debug-addr flag of cmd/coschedcli and
//     cmd/experiments).
//   - EventWriter / ReadEvents define the machine-readable JSONL trace:
//     one Event per line, round-trippable, analysed offline by
//     cmd/coschedtrace. Every solver writes it through one Emitter per
//     solve, which stamps each event with the solve ID and t_ms on the
//     solve's epoch. The sink behind the Emitter can be a durable
//     EventWriter, an in-memory FlightRecorder (last-N ring for
//     post-hoc incident capture), or both through MultiSink.
//   - SpanRecorder times the named phases of a solve pipeline (oracle
//     precompute, graph construction, condensation, search, IP model
//     build/solve) against its Emitter's epoch, exporting each phase as
//     span.<name>_ms histograms, span_start/span_end trace events, and
//     the cosched.Stats phase breakdown.
//   - ProgressReporter rate-limits human-readable progress lines (pops,
//     pops/sec, frontier size, ETA) for long searches.
//
// Metric names are dotted lowercase paths ("astar.pops",
// "online.placement_delay"); the full catalogue every producer uses is
// documented in DESIGN.md §6.
package telemetry
