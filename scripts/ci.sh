#!/usr/bin/env bash
# ci.sh — the full local gate: formatting, build, vet, doc coverage,
# tests, the allocation-budget guards (with telemetry off AND on), race
# passes over the concurrent search paths and the serving layer, a fuzz
# pass over the daemon's request decoding and key, the trace-invariant
# matrix (every producer's trace must pass coschedtrace
# check), the coschedd end-to-end serving gate, the restart-warm cache
# gate (SIGTERM + reboot over the same -cache-dir must keep the hit
# rate; a corrupt-tail segment must be skipped, not trusted), the
# open-loop loadgen + autoscaler gate, the two-replica chaos gate (kill
# one daemon mid-ladder under the fleet client), and the recorded
# serving-benchmark gate.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "ci: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...

# Doc-coverage gate: every package needs a package comment, every
# exported identifier a doc comment (scripts/doccheck).
go run ./scripts/doccheck .

go test ./...

# The DESIGN.md §5c/§6 allocation budget: a dismissed child must stay
# allocation-free without telemetry, with a live registry being flushed,
# and with the full tracing stack (event tracer + flight recorder +
# spans) attached, a condensed OA* expansion read from the level table
# and, above its budget, keying and deduping a condensation candidate
# must allocate nothing, HA*'s anchored candidate generation and its
# level walk below and above smallLevel, a warm beam depth's candidates
# shared per leader (anchored and walked), a beam depth's survivor
# selection, a class-enumerated PE-mix expansion, a warm Strategy 2
# h (a walk down the level minima prepare ordered) and a Strategy 1 h
# (one read of the sums prepare built) must allocate nothing, and an
# SDC oracle query and an SDC node-memo miss (one
# competition for the whole node) must allocate nothing (run explicitly
# so a -run filter in the main suite can never silently drop the gate).
go test ./internal/astar/ -run 'TestDismissedChildStaysAllocationFree|TestDismissedChildAllocFreeWithTelemetry|TestDismissedChildAllocFreeWithTracing|TestCondensedCandidateAllocationFree|TestHAStarCandidatesAllocationFree|TestSharedCandidatesAllocationFree|TestBeamSelectionAllocationFree|TestClassCandidatesAllocationFree|TestHStrategy2AllocationFree|TestHStrategy1AllocationFree' -count=1
go test ./internal/degradation/ -run 'TestSDCOracleDegradationAllocationFree|TestSDCMemoMissAllocationFree' -count=1

# Race matrix over the concurrent search paths: the work-stealing
# parallel engine (DESIGN.md §5d), its striped dismissal table and the
# parallel beam generator, under every h (the paper's Strategies 1 and
# 2 read level tables prepare built, TestParallelLevelStrategies), and
# the degradation.Cost node memo those
# workers share (ten rounds of goroutines querying one tightly bounded
# memo).
go test -race ./internal/astar/ -run 'Parallel|Striped'
go test -race -count=10 ./internal/degradation/

# The one wall clock under the race detector: a context deadline that
# expires mid-search must degrade every searching engine cleanly —
# sequential OA*, HA*, beam, 4 beam generators, the 4-worker engine, IP
# and O-SVP.
go test -race . -run TestDeadlineAbortsEveryEngine -count=1

# Serving-layer race pass: many SolveContext/SolveRobust calls sharing
# one Instance and oracle (the coschedd usage pattern), plus
# the daemon engine (including pool resizes during active solves and
# drain), its caches, the open-loop load generator, the fleet client
# (retries/hedges/breakers against real servers behind the chaos
# proxy), and the chaos proxy itself under their own concurrent tests.
go test -race . -run TestConcurrentSolvesShareInstance -count=1
go test -race ./internal/server/ ./internal/solvecache/ ./internal/loadgen/ \
    ./internal/coschedclient/ ./internal/chaosproxy/ -count=1

# Request-path fuzz: arbitrary bodies through decode, validation and the
# request key. Decoding never panics, nothing that validates exceeds the
# request bounds, and a request's key survives its JSON re-encoding.
go test ./internal/server/ -run '^$' -fuzz FuzzSolveRequest -fuzztime 5s

tracedir="$(mktemp -d)"
# On exit, kill every background job still running: the daemons the
# gates below boot, and any load generator or parked request.
trap 'kill -9 $(jobs -p) 2>/dev/null || true; rm -rf "$tracedir"' EXIT

# boot_coschedd LOG ARGS... starts the built coschedd with ARGS, logging
# to LOG, and waits up to 5s for its listen line. It sets coschedd_pid
# and addr.
boot_coschedd() {
    local log="$1"
    shift
    # Create the log before the daemon starts: the backgrounded
    # redirection may not have run by the first sed below.
    : > "$log"
    "$tracedir/coschedd" "$@" > "$log" 2>&1 &
    coschedd_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's#^coschedd: listening on http://##p' "$log")"
        [[ -n "$addr" ]] && return 0
        sleep 0.1
    done
    echo "ci: coschedd never printed its address ($log)" >&2
    exit 1
}

# Trace-invariant matrix: generate a small trace from every method
# (OA*, HA*-trimmed, beam, branch-and-bound, O-SVP, PG, brute force,
# online) and replay each against its invariants; the summaries must
# render too, and every report header must name its method.
go run ./cmd/coschedcli -synthetic 12 -trace "$tracedir/oa.jsonl" > /dev/null
go run ./cmd/coschedcli -synthetic 24 -method hastar -trace "$tracedir/ha.jsonl" > /dev/null
go run ./cmd/coschedcli -synthetic 44 -method hastar -trace "$tracedir/beam.jsonl" > /dev/null
go run ./cmd/coschedcli -synthetic 8 -method ip -trace "$tracedir/ip.jsonl" > /dev/null
for m in osvp pg brute; do
    go run ./cmd/coschedcli -synthetic 12 -method "$m" -trace "$tracedir/$m.jsonl" > /dev/null
done
go run ./examples/onlinesim -trace "$tracedir/online.jsonl" > /dev/null
go run ./cmd/coschedtrace check "$tracedir"/*.jsonl > /dev/null
for f in "$tracedir"/*.jsonl; do
    go run ./cmd/coschedtrace summary "$f" > "$tracedir/summary.out"
    grep -q '=== solve' "$tracedir/summary.out" || {
        echo "ci: coschedtrace summary produced no report for $f" >&2
        exit 1
    }
    if grep '=== solve' "$tracedir/summary.out" | grep -q ': unknown'; then
        echo "ci: coschedtrace summary has a report titled unknown for $f" >&2
        exit 1
    fi
done
echo "ci: trace invariants hold for OA*, HA*, beam, IP, O-SVP, PG, brute-force and online traces" >&2

# Parallel-search trace gate: a 4-worker solve must record its worker
# count in the trace header, pass the (order-relaxed, totals-enforced)
# invariant replay, and match the sequential cost on the same instance.
go run ./cmd/coschedcli -synthetic 12 -parallel 4 -trace "$tracedir/par.jsonl" > "$tracedir/par.out"
go run ./cmd/coschedtrace check "$tracedir/par.jsonl" > /dev/null
go run ./cmd/coschedtrace summary "$tracedir/par.jsonl" | grep '4 expansion workers' > /dev/null || {
    echo "ci: parallel trace header does not record its worker count" >&2
    exit 1
}
seq_cost="$(go run ./cmd/coschedcli -synthetic 12 < /dev/null | grep -o 'total degradation [0-9.]*')"
par_cost="$(grep -o 'total degradation [0-9.]*' "$tracedir/par.out")"
[[ -n "$seq_cost" && "$seq_cost" == "$par_cost" ]] || {
    echo "ci: parallel cost '$par_cost' != sequential cost '$seq_cost'" >&2
    exit 1
}
echo "ci: 4-worker parallel solve traces clean at the sequential cost" >&2

# Robustness matrix: every method under an already-expired deadline must
# still return a valid degraded schedule promptly (the anytime
# guarantee), its trace must carry the abort event, and the degraded
# traces must pass the same invariant gate as completed ones.
for m in oastar hastar osvp ip pg brute; do
    out="$(go run ./cmd/coschedcli -synthetic 12 -method "$m" -deadline 1ns -trace "$tracedir/deg-$m.jsonl")"
    grep -q 'DEGRADED(' <<<"$out" || {
        echo "ci: method $m under an expired deadline did not report a degraded schedule" >&2
        exit 1
    }
    grep -q 'schedule over' <<<"$out" || {
        echo "ci: method $m under an expired deadline printed no schedule" >&2
        exit 1
    }
done
go run ./cmd/coschedtrace check "$tracedir"/deg-*.jsonl > /dev/null
# The fallback ladder under a tight-but-usable deadline must answer and
# report the rungs it walked. (Capture to a file rather than piping into
# grep -q: an early grep exit SIGPIPEs the still-printing writer, and
# pipefail turns that into a spurious gate failure.)
go run ./cmd/coschedcli -synthetic 16 -robust -deadline 200ms > "$tracedir/robust.out"
grep -q 'fallback ladder:' "$tracedir/robust.out" || {
    echo "ci: SolveRobust did not report its fallback ladder" >&2
    exit 1
}
echo "ci: every method degrades gracefully under an expired deadline" >&2

# Seeded fault-injection online run: crashes, evictions, placement
# failures and a noisy oracle must leave a causally consistent trace.
go run ./examples/onlinesim -faults -faultseed 1 -trace "$tracedir/online-faults.jsonl" > /dev/null
go run ./cmd/coschedtrace check "$tracedir/online-faults.jsonl" > /dev/null
echo "ci: fault-injected online simulation trace is causally consistent" >&2

# coschedd serving gate: boot the daemon on an ephemeral port, exercise
# solve + cache hit + batch + robust + queued-deadline rejection over
# HTTP, scrape the server.* Prometheus metrics, and verify a SIGTERM
# drain exits 0.
go build -o "$tracedir/coschedd" ./cmd/coschedd
boot_coschedd "$tracedir/coschedd.log" -addr 127.0.0.1:0 -workers 1
curl -sf "http://$addr/healthz" > /dev/null

solve_req='{"synthetic": 8, "seed": 4, "method": "hastar"}'
curl -sf -d "$solve_req" "http://$addr/v1/solve" | grep -q '"cached":false' || {
    echo "ci: coschedd first solve was not a cache miss" >&2; exit 1; }
curl -sf -d "$solve_req" "http://$addr/v1/solve" | grep -q '"cached":true' || {
    echo "ci: coschedd repeated solve was not served from the cache" >&2; exit 1; }

batch='{"requests": [{"synthetic": 6, "method": "pg"}, {"synthetic": 6, "robust": true, "deadline_ms": 500}]}'
batch_out="$(curl -sf -d "$batch" "http://$addr/v1/batch")"
grep -q '"method":"robust"' <<<"$batch_out" || {
    echo "ci: coschedd batch did not run its robust item" >&2; exit 1; }
grep -q '"status":200.*"status":200' <<<"$batch_out" || {
    echo "ci: coschedd batch items did not both succeed" >&2; exit 1; }

# Deadline rejection: park the single worker on a deadline-bounded OA*
# (26 jobs cannot finish exactly in 1.5s), then queue a request whose
# 100ms deadline must expire while it waits — a 504.
curl -s -d '{"synthetic": 26, "method": "oastar", "deadline_ms": 1500, "no_cache": true}' \
    "http://$addr/v1/solve" > /dev/null &
park_pid=$!
sleep 0.3
code="$(curl -s -o /dev/null -w '%{http_code}' \
    -d '{"synthetic": 4, "method": "pg", "deadline_ms": 100, "no_cache": true}' \
    "http://$addr/v1/solve")"
[[ "$code" == "504" ]] || {
    echo "ci: queued past-deadline request returned $code; want 504" >&2; exit 1; }
wait "$park_pid"

metrics="$(curl -sf "http://$addr/metrics")"
grep -Eq '^cosched_server_cache_hits [1-9]' <<<"$metrics" || {
    echo "ci: coschedd /metrics shows no cache hits" >&2; exit 1; }
grep -Eq '^cosched_server_rejected_deadline [1-9]' <<<"$metrics" || {
    echo "ci: coschedd /metrics shows no deadline rejection" >&2; exit 1; }

kill -TERM "$coschedd_pid"
wait "$coschedd_pid" || {
    echo "ci: coschedd did not drain cleanly on SIGTERM" >&2; exit 1; }
grep -q 'drained clean' "$tracedir/coschedd.log" || {
    echo "ci: coschedd log is missing the drain summary" >&2; exit 1; }
echo "ci: coschedd serves, caches, rejects expired work and drains clean" >&2

# Restart-warm cache gate: boot coschedd over a spill directory, warm
# five fingerprints, SIGTERM it, reboot over the same -cache-dir and
# require (a) the boot log reports the replay, (b) the first repeated
# request is already a cache hit, (c) /metrics counts the replay, and
# (d) the /debug/trace cache timeline renders the replay/store history.
cache_dir="$tracedir/cache-spill"
boot_coschedd "$tracedir/coschedd-warm.log" -addr 127.0.0.1:0 -workers 1 -cache-dir "$cache_dir"
for seed in 1 2 3 4 5; do
    curl -sf -d "{\"synthetic\": 8, \"seed\": $seed, \"method\": \"hastar\"}" \
        "http://$addr/v1/solve" > /dev/null
done
kill -TERM "$coschedd_pid"
wait "$coschedd_pid" || {
    echo "ci: spill coschedd did not drain cleanly" >&2; exit 1; }

boot_coschedd "$tracedir/coschedd-warm2.log" -addr 127.0.0.1:0 -workers 1 -cache-dir "$cache_dir"
grep -Eq 'cache warm: replayed [1-9][0-9]* records' "$tracedir/coschedd-warm2.log" || {
    echo "ci: rebooted coschedd did not report a cache replay at boot" >&2; exit 1; }
curl -sf -d '{"synthetic": 8, "seed": 3, "method": "hastar"}' "http://$addr/v1/solve" \
    | grep -q '"cached":true' || {
    echo "ci: first repeated request after restart was not a cache hit" >&2; exit 1; }
metrics="$(curl -sf "http://$addr/metrics")"
grep -Eq '^cosched_server_cache_replayed [1-9]' <<<"$metrics" || {
    echo "ci: rebooted coschedd /metrics shows no replayed cache records" >&2; exit 1; }
grep -Eq '^cosched_server_cache_bytes [1-9]' <<<"$metrics" || {
    echo "ci: rebooted coschedd /metrics shows an empty cache after replay" >&2; exit 1; }
curl -sf "http://$addr/debug/trace" | go run ./cmd/coschedtrace cache - \
    > "$tracedir/cache-timeline.out"
grep -q 'cache timeline' "$tracedir/cache-timeline.out" || {
    echo "ci: coschedtrace cache did not render the daemon's cache timeline" >&2; exit 1; }
grep -q 'replay' "$tracedir/cache-timeline.out" || {
    echo "ci: cache timeline is missing the boot replay event" >&2; exit 1; }
kill -TERM "$coschedd_pid"
wait "$coschedd_pid" || {
    echo "ci: rebooted spill coschedd did not drain cleanly" >&2; exit 1; }
echo "ci: coschedd restarts warm from its spill directory" >&2

# Corrupt-tail gate: tear the last spill segment mid-record (a crash
# between write and close). The daemon must boot clean, replay the
# intact prefix, report the skip, and still serve the surviving
# fingerprints from cache.
last_seg="$(ls "$cache_dir"/cache-*.seg | sort | tail -n 1)"
[[ -n "$last_seg" ]] || { echo "ci: spill directory holds no segments to corrupt" >&2; exit 1; }
truncate -s -5 "$last_seg"
boot_coschedd "$tracedir/coschedd-torn.log" -addr 127.0.0.1:0 -workers 1 -cache-dir "$cache_dir"
curl -sf "http://$addr/healthz" > /dev/null || {
    echo "ci: torn-tail coschedd is not healthy" >&2; exit 1; }
grep -Eq 'cache warm: replayed [0-9]+ records \([1-9][0-9]* skipped\)' "$tracedir/coschedd-torn.log" || {
    echo "ci: torn-tail coschedd did not log the skipped record" >&2; exit 1; }
grep -Eq 'cache warm: replayed [1-9][0-9]* records' "$tracedir/coschedd-torn.log" || {
    echo "ci: torn-tail coschedd replayed nothing from the intact prefix" >&2; exit 1; }
kill -TERM "$coschedd_pid"
wait "$coschedd_pid" || {
    echo "ci: torn-tail coschedd did not drain cleanly" >&2; exit 1; }
echo "ci: coschedd tolerates a crash-torn spill segment" >&2

# Request-observability gate: boot coschedd with a JSON access log,
# fire a warm/cold/rejected mix with caller-supplied request IDs, and
# require: the ID echoed on the response header and body, every
# access-log line a JSON object with the full field set, each ID in
# exactly one line, and every non-batch line's queue+solve+encode within
# its total_ms — the warm hit included (scripts/obscheck), the request
# events joinable to their solve timeline in /debug/trace via
# `coschedtrace requests`, the live /debug/requests ring showing the
# request, and the RED/SLO/in-flight series in /metrics.
boot_coschedd "$tracedir/coschedd-obs.log" -addr 127.0.0.1:0 -workers 1 -access-log "$tracedir/access.log"

obs_req='{"synthetic": 8, "seed": 9, "method": "hastar"}'
echo_id="$(curl -sf -D - -o "$tracedir/obs-cold.json" -H 'X-Request-ID: ci-obs-cold' \
    -d "$obs_req" "http://$addr/v1/solve" | grep -i '^x-request-id:' | tr -d '\r' | awk '{print $2}')"
[[ "$echo_id" == "ci-obs-cold" ]] || {
    echo "ci: X-Request-ID not echoed on the response header (got '$echo_id')" >&2; exit 1; }
grep -q '"request_id":"ci-obs-cold"' "$tracedir/obs-cold.json" || {
    echo "ci: solve response body does not carry its request id" >&2; exit 1; }
curl -sf -H 'X-Request-ID: ci-obs-warm' -d "$obs_req" "http://$addr/v1/solve" | grep -q '"cached":true' || {
    echo "ci: warm observability request was not served from the cache" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' -H 'X-Request-ID: ci-obs-bad' \
    -d '{}' "http://$addr/v1/solve")"
[[ "$code" == "400" ]] || { echo "ci: workload-less request returned $code; want 400" >&2; exit 1; }

go run ./scripts/obscheck -log "$tracedir/access.log" ci-obs-cold ci-obs-warm ci-obs-bad

curl -sf "http://$addr/debug/requests" | grep -q 'ci-obs-cold' || {
    echo "ci: /debug/requests does not show the request" >&2; exit 1; }
curl -sf "http://$addr/debug/trace" > "$tracedir/obs-trace.jsonl"
go run ./cmd/coschedtrace requests "$tracedir/obs-trace.jsonl" > "$tracedir/obs-requests.out"
grep -q 'ci-obs-cold' "$tracedir/obs-requests.out" || {
    echo "ci: coschedtrace requests does not render the traced request" >&2; exit 1; }
solve_id="$(grep -o '"solve_id":[0-9]*' "$tracedir/obs-cold.json" | head -1 | cut -d: -f2)"
[[ -n "$solve_id" && "$solve_id" != "0" ]] || {
    echo "ci: solve response carries no solve_id join key" >&2; exit 1; }
go run ./cmd/coschedtrace summary -solve "$solve_id" "$tracedir/obs-trace.jsonl" > "$tracedir/obs-summary.out"
grep -q '=== solve' "$tracedir/obs-summary.out" || {
    echo "ci: request's solve_id $solve_id joins no solve timeline in the trace" >&2; exit 1; }

obs_metrics="$(curl -sf "http://$addr/metrics")"
for series in cosched_server_requests_inflight cosched_server_http_requests_v1_solve \
    cosched_server_http_duration_ms_v1_solve_count cosched_server_slo_availability_good \
    cosched_server_slo_latency_burn_fast; do
    grep -q "^$series" <<<"$obs_metrics" || {
        echo "ci: /metrics is missing the $series series" >&2; exit 1; }
done

kill -TERM "$coschedd_pid"
wait "$coschedd_pid" || { echo "ci: observability coschedd did not drain cleanly" >&2; exit 1; }
echo "ci: request observability — IDs echoed, access log validates, trace joins, metrics present" >&2

# Serving benchmark + autoscaler gate: boot coschedd with a 1..4
# autoscaling pool and aggressive scale knobs, drive a two-rung
# open-loop coschedload ladder that saturates one worker whatever the
# solver's speed (OA* cannot prove 26 jobs within an 80ms deadline, so
# every solve runs until the deadline and answers degraded, which is
# never cached: 15 rps offers 1.2 workers' load and 25 rps 2), and
# require: a valid BENCH_serving.json, at least one autoscale grow in
# /metrics, the pool shrinking back once the ladder goes idle, a
# renderable scaling timeline from /debug/trace, and a clean SIGTERM
# drain. Requests whose deadline expires in the queue get 504s, which
# the report counts and the gate allows.
go build -o "$tracedir/coschedload" ./cmd/coschedload
boot_coschedd "$tracedir/coschedd-scale.log" -addr 127.0.0.1:0 -workers-min 1 -workers-max 4 \
    -scale-interval 200ms -scale-up-p90 5ms -scale-idle 1500ms -scale-cooldown 400ms
"$tracedir/coschedload" -addr "http://$addr" -rungs 15x3s,25x3s -synthetic 26 -method oastar -deadline-ms 80 -warm 0.3 \
    -out "$tracedir/BENCH_serving.json" > "$tracedir/coschedload.out"
"$tracedir/coschedload" -check "$tracedir/BENCH_serving.json" > /dev/null
grep -Eq '^cosched_server_autoscale_grow [1-9]' <<<"$(curl -sf "http://$addr/metrics")" || {
    echo "ci: autoscaler never grew the pool under the ladder" >&2; exit 1; }
shrunk=""
for _ in $(seq 1 40); do
    if curl -sf "http://$addr/metrics" | grep -Eq '^cosched_server_autoscale_shrink [1-9]'; then
        shrunk=yes; break
    fi
    sleep 0.25
done
[[ -n "$shrunk" ]] || { echo "ci: autoscaler never shrank after the ladder went idle" >&2; exit 1; }
curl -sf "http://$addr/debug/trace" | go run ./cmd/coschedtrace scaling - > "$tracedir/scaling.out"
grep -q 'autoscale timeline' "$tracedir/scaling.out" || {
    echo "ci: /debug/trace yields no autoscale timeline" >&2; exit 1; }
kill -TERM "$coschedd_pid"
wait "$coschedd_pid" || { echo "ci: autoscaling coschedd did not drain cleanly" >&2; exit 1; }
echo "ci: autoscaler grew under load, shrank when idle, BENCH_serving.json validates" >&2

# Chaos fleet gate: two replica daemons behind the fault-tolerant fleet
# client (coschedload -replicas), with one replica SIGKILLed mid-ladder
# and revived on the same port. The run must hold a sub-5% non-429
# error rate and the caller deadline (+1s grace for retries and
# measurement) — coschedload itself enforces both and exits non-zero on
# a breach. On top of that: the circuit breaker must open while the
# replica is down and half-open after it returns, a failed-over request
# must keep one request ID across attempt-numbered client events, that
# ID must appear with status 200 in exactly one replica's access log
# (no duplicate side effects), and `coschedtrace fleet` must render the
# client trace.
boot_coschedd "$tracedir/chaos-r1.log" -addr 127.0.0.1:0 -workers 2 -replica-id r-one \
    -access-log "$tracedir/chaos-r1.access"
chaos_r1_pid=$coschedd_pid
r1_addr=$addr
boot_coschedd "$tracedir/chaos-r2.log" -addr 127.0.0.1:0 -workers 2 -replica-id r-two \
    -access-log "$tracedir/chaos-r2.access"
chaos_r2_pid=$coschedd_pid
r2_addr=$addr

"$tracedir/coschedload" -replicas "http://$r1_addr,http://$r2_addr" \
    -rungs 15x3s,15x3s,15x3s -synthetic 6 -deadline-ms 2000 \
    -client-trace "$tracedir/chaos-client.jsonl" \
    -max-error-rate 0.05 -assert-deadline 1s \
    -out "$tracedir/BENCH_chaos.json" > "$tracedir/chaos-load.out" 2>&1 &
chaos_load_pid=$!
# Mid-rung, hard-kill r-two. Three seconds of outage at 15 rps routes
# enough of the ring's r-two half into connection failures to trip the
# breaker (5-sample minimum) and ride out its 2s open window; the
# revival on the same port then gives the half-open probe a healthy
# backend while the ladder is still firing.
sleep 2
kill -9 "$chaos_r2_pid" 2>/dev/null || true
wait "$chaos_r2_pid" 2>/dev/null || true
sleep 3
"$tracedir/coschedd" -addr "$r2_addr" -workers 2 -replica-id r-two \
    -access-log "$tracedir/chaos-r2.access" >> "$tracedir/chaos-r2.log" 2>&1 &
chaos_r2_pid=$!
wait "$chaos_load_pid" || {
    echo "ci: chaos ladder failed its error-rate or deadline gate:" >&2
    cat "$tracedir/chaos-load.out" >&2
    exit 1
}
"$tracedir/coschedload" -check "$tracedir/BENCH_chaos.json" > /dev/null

fleet_line="$(grep '^coschedload: fleet ' "$tracedir/chaos-load.out")"
echo "ci: $fleet_line" >&2
opens="$(grep -o 'breaker_opens=[0-9]*' <<<"$fleet_line" | cut -d= -f2)"
half_opens="$(grep -o 'breaker_half_opens=[0-9]*' <<<"$fleet_line" | cut -d= -f2)"
failovers="$(grep -o 'failovers=[0-9]*' <<<"$fleet_line" | cut -d= -f2)"
[[ "$opens" -ge 1 ]] || {
    echo "ci: breaker never opened while a replica was down" >&2; exit 1; }
[[ "$half_opens" -ge 1 ]] || {
    echo "ci: breaker never half-opened after the replica returned" >&2; exit 1; }
[[ "$failovers" -ge 1 ]] || {
    echo "ci: no request failed over to the surviving replica" >&2; exit 1; }

# Request-identity continuity and no duplicate side effects: take a
# retried (non-hedged) request from the client trace, confirm its
# attempts are numbered from 1 under one ID, and confirm exactly one
# 200 access-log line across both replicas carries that ID.
dup_id="$(grep '"ev":"client_request"' "$tracedir/chaos-client.jsonl" \
    | grep -v '"hedged":true' | grep -E '"attempt":[2-9]' | head -1 \
    | sed -n 's/.*"req_id":"\([^"]*\)".*/\1/p')"
[[ -n "$dup_id" ]] || {
    echo "ci: client trace has no multi-attempt request despite the replica kill" >&2; exit 1; }
grep '"ev":"client_attempt"' "$tracedir/chaos-client.jsonl" \
    | grep "\"req_id\":\"$dup_id\"" | grep -q '"attempt":1' || {
    echo "ci: retried request $dup_id has no attempt-1 client event" >&2; exit 1; }
ok_lines="$(cat "$tracedir/chaos-r1.access" "$tracedir/chaos-r2.access" \
    | grep "\"req_id\":\"$dup_id\"" | grep -c '"status":200' || true)"
[[ "$ok_lines" == "1" ]] || {
    echo "ci: request $dup_id has $ok_lines status-200 access-log lines; want exactly 1" >&2; exit 1; }

go run ./cmd/coschedtrace fleet "$tracedir/chaos-client.jsonl" > "$tracedir/chaos-fleet.out"
grep -q '=== fleet' "$tracedir/chaos-fleet.out" || {
    echo "ci: coschedtrace fleet produced no report" >&2; exit 1; }

kill -TERM "$chaos_r1_pid" "$chaos_r2_pid"
wait "$chaos_r1_pid" || { echo "ci: chaos replica r-one did not drain cleanly" >&2; exit 1; }
wait "$chaos_r2_pid" || { echo "ci: chaos replica r-two did not drain cleanly" >&2; exit 1; }
echo "ci: chaos gate — replica killed and revived mid-ladder, breaker opened ($opens) and recovered ($half_opens), $failovers failovers, no duplicate side effects" >&2

# The recorded serving-benchmark gate (no bench run — validate the
# committed BENCH_serving.json).
scripts/servebench.sh --check

echo "ci: all green" >&2
