// Command coschedd serves the cosched solver over HTTP/JSON: a bounded
// worker pool behind an admission queue, per-request deadlines, a
// request-keyed cache of solved schedules (entry- and byte-bounded
// via -cache/-cache-bytes; persisted and restart-warm via -cache-dir),
// and graceful drain on SIGTERM/SIGINT. The pool is fixed at -workers,
// or autoscales between -workers-min and -workers-max on queue-delay
// pressure (SERVING.md documents the tuning knobs and metrics).
//
// Usage:
//
//	coschedd -addr :8080 -workers 4
//	coschedd -addr :8080 -workers-min 1 -workers-max 8
//	curl -s localhost:8080/v1/solve -d '{"synthetic": 8, "method": "hastar"}'
//	curl -s localhost:8080/v1/solve-robust -d '{"synthetic": 8, "deadline_ms": 200}'
//	curl -s localhost:8080/v1/batch -d '{"requests": [{"synthetic": 6}, {"synthetic": 8}]}'
//
// Telemetry lives on the same listener: Prometheus metrics under
// /metrics (the server.* family plus solver metrics), expvar under
// /debug/vars, pprof under /debug/pprof/, the flight recorder's recent
// solver and request events under /debug/trace, and the last 256
// request records under /debug/requests. Every request is logged as one
// structured JSON line (-access-log) carrying the request ID the daemon
// echoes on X-Request-ID; the line, the request event and the
// /debug/requests row render the same record.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cosched/internal/server"
	"cosched/internal/telemetry"
)

// flightRecorderSize is the in-memory event window exposed under
// /debug/trace; emitting into the ring is allocation-free, so the
// recorder is always on.
const flightRecorderSize = 8192

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers      = flag.Int("workers", 2, "solver worker goroutines (fixed pool; shorthand for -workers-min == -workers-max)")
		workersMin   = flag.Int("workers-min", 0, "autoscaled pool floor (0 = -workers)")
		workersMax   = flag.Int("workers-max", 0, "autoscaled pool ceiling (0 = -workers; > min enables the autoscaler)")
		scaleEvery   = flag.Duration("scale-interval", 0, "autoscaler decision interval (0 = 1s)")
		scaleUpP90   = flag.Duration("scale-up-p90", 0, "grow when the recent p90 queue delay exceeds this (0 = 25ms)")
		scaleIdle    = flag.Duration("scale-idle", 0, "shrink after this long with no admissions and an empty queue (0 = 5s)")
		scaleCool    = flag.Duration("scale-cooldown", 0, "minimum gap between scale events (0 = 2s)")
		queueDepth   = flag.Int("queue", 64, "admission queue depth; a full queue rejects with 429")
		cacheEntries = flag.Int("cache", 128, "solved-schedule cache capacity in entries (-1 disables)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "solved-schedule cache budget in bytes (-1 = entry bound only)")
		cacheDir     = flag.String("cache-dir", "", "persist the solution cache to a segment log here and pre-warm from it at boot ('' = memory only)")
		defaultDL    = flag.Duration("default-deadline", 0, "deadline applied to requests that set none (0 = none)")
		maxDL        = flag.Duration("max-deadline", 0, "cap on any request's deadline (0 = uncapped)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight solves on shutdown")
		solvePar     = flag.Int("solve-parallelism", 1, "expansion workers per graph solve for requests that set no parallelism (1 = exact sequential path)")
		accessLog    = flag.String("access-log", "stderr", "structured access-log destination: stderr, stdout, a file path, or 'off'")
		sloLatency   = flag.Duration("slo-latency", 500*time.Millisecond, "latency objective: a 200 within this is a good event for server.slo.latency")
		sloObjective = flag.Float64("slo-objective", 0.99, "target good fraction for the availability and latency SLOs")
		replicaID    = flag.String("replica-id", "", "stable fleet identity for this daemon, shown in /healthz, access logs and request events (empty = boot-generated)")
	)
	flag.Parse()

	logger, closeLog, err := openAccessLog(*accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coschedd:", err)
		os.Exit(1)
	}
	if closeLog != nil {
		defer closeLog()
	}

	recorder := telemetry.NewFlightRecorder(flightRecorderSize)
	srv, err := server.New(server.Config{
		Workers:          *workers,
		WorkersMin:       *workersMin,
		WorkersMax:       *workersMax,
		ScaleInterval:    *scaleEvery,
		ScaleUpP90:       *scaleUpP90,
		ScaleIdle:        *scaleIdle,
		ScaleCooldown:    *scaleCool,
		QueueDepth:       *queueDepth,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		CacheDir:         *cacheDir,
		DefaultDeadline:  *defaultDL,
		MaxDeadline:      *maxDL,
		SolveParallelism: *solvePar,
		Metrics:          telemetry.Default,
		Recorder:         recorder,
		AccessLog:        logger,
		SLOLatency:       *sloLatency,
		SLOObjective:     *sloObjective,
		ReplicaID:        *replicaID,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coschedd:", err)
		os.Exit(1)
	}
	if *cacheDir != "" {
		st := srv.CacheStats()
		fmt.Printf("coschedd: cache warm: replayed %d records (%d skipped) from %s\n",
			st.Replayed, st.ReplaySkipped, *cacheDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coschedd:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("coschedd: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Printf("coschedd: %v — draining (timeout %v)\n", sig, *drainTimeout)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "coschedd:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then let admitted solves finish.
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "coschedd: shutdown:", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "coschedd: drain:", err)
		os.Exit(1)
	}
	if err := srv.CloseCache(); err != nil {
		fmt.Fprintln(os.Stderr, "coschedd: cache close:", err)
	}
	st := srv.CacheStats()
	fmt.Printf("coschedd: drained clean (cache: %d entries, %d bytes, %d hits, %d misses, %d evictions, %d spilled)\n",
		st.Entries, st.Bytes, st.Hits, st.Misses, st.Evictions, st.Spilled)
}

// openAccessLog resolves the -access-log flag into a JSON slog logger:
// "stderr"/"stdout" write to the process streams, "off"/"" disables the
// log, anything else is a file path opened for append. The returned
// close function is nil when there is nothing to close.
func openAccessLog(dest string) (*slog.Logger, func(), error) {
	switch dest {
	case "off", "":
		return nil, nil, nil
	case "stderr":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil, nil
	case "stdout":
		return slog.New(slog.NewJSONHandler(os.Stdout, nil)), nil, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("access log: %w", err)
	}
	return slog.New(slog.NewJSONHandler(f, nil)), func() { f.Close() }, nil //nolint:errcheck // append-only log
}
