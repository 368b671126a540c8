package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosched"
	"cosched/internal/loadgen"
	"cosched/internal/server"
	"cosched/internal/solvecache"
)

// serve-mixed shape: an open loop at serveRPS through loopback HTTP into
// a one-worker daemon. 70% of requests re-ask one of servePool warm
// fingerprints that set-up already solved (hits); the rest never repeat
// (misses, about 12 ms of HA* each, so the worker is busy about a fifth
// of the time).
const (
	serveRPS       = 50 // 1050 hits in 30 s: 10 beyond the hit p99
	servePool      = 16
	serveWarm      = 0.7
	serveJobs      = 16
	serveMethod    = "hastar"
	serveCores     = 4
	serveMaxLag    = time.Second // a later send means the generator fell behind
	serveVerifyGap = 8           // re-solve every 8th miss locally to check it
)

// instanceSeed maps a loadgen workload seed to an instance seed. loadgen
// always numbers warm seeds 1..PoolSize and cold seeds from 1<<20. Warm
// seeds keep their number, so the warm pool, and with it the set-up that
// fills it, is the same for every benchmark seed. Cold seeds move into an
// instance-seed range of their benchmark seed, so different benchmark
// seeds miss on different instances.
func instanceSeed(benchSeed int64, q loadgen.Request) int64 {
	if q.Warm {
		return q.Seed
	}
	base := int64(uint64(benchSeed) * 0x9E3779B97F4A7C15 >> 34)
	return base<<22 + q.Seed
}

// serveRequest is one scheduled call and what came back.
type serveRequest struct {
	body            []byte
	seed            int64
	warm            bool
	due, sent, done time.Duration // offsets from the run start
	status          int
	resp            server.SolveResponse
	err             error
}

func (r *serveRequest) hit() bool { return r.resp.Cached || r.resp.Shared }

// traceSpans records the request as operation id: the generator's lag,
// then the HTTP exchange with the server-reported queue wait and, for a
// miss, the solve inside it.
func (r *serveRequest) traceSpans(tr *tracer, id int64, start time.Time) {
	root := tr.add(id, -1, "op", start.Add(r.due), start.Add(r.done))
	tr.add(id, root, "lag", start.Add(r.due), start.Add(r.sent))
	httpSpan := tr.add(id, root, "http", start.Add(r.sent), start.Add(r.done))
	q := start.Add(r.sent + time.Duration(r.resp.QueueMS*float64(time.Millisecond)))
	tr.add(id, httpSpan, "queue", start.Add(r.sent), q)
	if r.err == nil && !r.hit() {
		tr.add(id, httpSpan, "solve", q, q.Add(time.Duration(r.resp.SolveMS*float64(time.Millisecond))))
	}
}

// daemon is an in-process coschedd on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	warm   map[int64]float64 // warm instance seed -> cost of its set-up miss
}

func bootDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{Workers: 1, WorkersMin: 1, WorkersMax: 1, SolveParallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		warm:   map[int64]float64{},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and closes its listener, waiting for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := d.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func solveBody(seed int64) []byte {
	b, _ := json.Marshal(server.SolveRequest{Synthetic: serveJobs, Seed: seed, Method: serveMethod}) // plain struct, cannot fail
	return b
}

// post sends one solve and decodes the answer.
func post(client *http.Client, url string, body []byte) (int, server.SolveResponse, error) {
	var out server.SolveResponse
	resp, err := client.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, out, json.Unmarshal(data, &out)
}

// setupDaemon boots a daemon and fills its cache with the warm pool: the
// work a user pays before the daemon serves hits.
func setupDaemon(client *http.Client, warm []int64) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := bootDaemon()
	if err != nil {
		return nil, 0, err
	}
	for _, seed := range warm {
		_, resp, err := post(client, d.url, solveBody(seed))
		if err != nil {
			d.stop() //nolint:errcheck // the fill error is the one to report
			return nil, 0, fmt.Errorf("warm fill, instance %d: %w", seed, err)
		}
		d.warm[seed] = resp.Cost
	}
	return d, time.Since(start), nil
}

// scrape reads the daemon's /metrics counters and gauges (histogram
// bucket lines are skipped; their _sum and _count lines are kept).
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "cosched_")] = v
		}
	}
	return out, sc.Err()
}

// fire runs the open loop: nproc senders, one connection each, claim
// requests in schedule order and send each at its due time (or as soon
// as the sender is free, if it is late). Latency counts from due time.
// With a tracer, every request records its spans once its latency is
// taken, and the time they take is charged to tr.
func fire(client *http.Client, url string, reqs []serveRequest, tr *tracer) time.Time {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	var trMu sync.Mutex
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				r.sent = time.Since(start)
				r.status, r.resp, r.err = post(client, url, r.body)
				r.done = time.Since(start)
				if tr != nil {
					ts := time.Now()
					trMu.Lock()
					r.traceSpans(tr, int64(i), start)
					tr.charge(ts, r.done-r.due)
					trMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return start
}

// schedule expands the loadgen open-loop schedule for one benchmark
// seed, mapping its workload seeds to instance seeds with instanceSeed,
// and returns it with the warm pool. loadgen draws warm or cold per
// request, so the warm share of a schedule varies with its seed;
// schedule takes the first loadgen seed derived from benchSeed whose
// schedule is warm in exactly serveWarm of its requests, so every
// benchmark seed serves the same hit/miss mix.
func schedule(benchSeed int64, seconds float64) ([]serveRequest, []int64, error) {
	var lg []loadgen.Request
	for k := int64(0); ; k++ {
		if k == 1000 {
			return nil, nil, fmt.Errorf("no loadgen seed gives a %.0f%% warm schedule", 100*serveWarm)
		}
		var err error
		lg, err = loadgen.BuildSchedule(loadgen.Config{
			Rungs:        []loadgen.Rung{{RPS: serveRPS, Duration: time.Duration(seconds * float64(time.Second))}},
			PoolSize:     servePool,
			WarmFraction: serveWarm,
			Seed:         benchSeed*1000 + k,
			Synthetic:    serveJobs,
			Method:       serveMethod,
		})
		if err != nil {
			return nil, nil, err
		}
		warm := 0
		for _, q := range lg {
			if q.Warm {
				warm++
			}
		}
		if warm == int(math.Round(serveWarm*float64(len(lg)))) {
			break
		}
	}
	reqs := make([]serveRequest, len(lg))
	for i, q := range lg {
		var body server.SolveRequest
		if err := json.Unmarshal(q.Body, &body); err != nil {
			return nil, nil, fmt.Errorf("loadgen body: %w", err)
		}
		body.Seed = instanceSeed(benchSeed, q)
		reqs[i] = serveRequest{body: solveBody(body.Seed), seed: body.Seed, warm: q.Warm, due: q.At}
		if body.Synthetic != serveJobs || body.Method != serveMethod {
			return nil, nil, fmt.Errorf("loadgen body %s does not match the workload", q.Body)
		}
	}
	warm := make([]int64, servePool)
	for i := range warm {
		warm[i] = instanceSeed(benchSeed, loadgen.Request{Seed: int64(i) + 1, Warm: true})
	}
	return reqs, warm, nil
}

// localCost solves a serve-mixed instance in-process, the reference a
// daemon answer must match.
func localCost(seed int64) (float64, error) {
	inst, err := cosched.SyntheticSerial(serveJobs, cosched.QuadCore, seed)
	if err != nil {
		return 0, err
	}
	s, err := cosched.SolveContext(context.Background(), inst, cosched.Options{Method: cosched.MethodHAStar, Parallelism: 1})
	if err != nil {
		return 0, err
	}
	return s.TotalDegradation, nil
}

// checkAnswer validates one response against the workload's invariants.
func checkAnswer(r *serveRequest, warm map[int64]float64) error {
	if r.err != nil {
		return r.err
	}
	resp := &r.resp
	if err := checkPartition(resp.Groups, serveJobs, serveJobs/serveCores, serveCores); err != nil {
		return err
	}
	if resp.Degraded {
		return fmt.Errorf("degraded answer (%s)", resp.AbortReason)
	}
	if !sameCost(resp.AvgCost*serveJobs, resp.Cost) {
		return fmt.Errorf("avg cost %.12g does not match cost %.12g", resp.AvgCost, resp.Cost)
	}
	if want, ok := warm[r.seed]; ok && !sameCost(resp.Cost, want) {
		return fmt.Errorf("instance %d: cost %.12g, its set-up miss returned %.12g", r.seed, resp.Cost, want)
	}
	return nil
}

// runServe runs serve-mixed: one open-loop pass over the schedule
// against a daemon that set-up (boot plus warm fill) prepared.
//
// Set-up runs setupRepeats times: the first half before the measured
// window, the last daemon of which serves it, and the rest after it. The
// machine's speed wanders over seconds, so set-ups run back to back would
// sample one moment of it; split around the window, their median spans
// the run.
func runServe(benchSeed int64, seconds float64, tr *tracer) (*report, error) {
	reqs, warm, err := schedule(benchSeed, seconds)
	if err != nil {
		return nil, err
	}
	tp := &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}

	var setups []float64
	setup := func() (*daemon, error) {
		runtime.GC() // every set-up starts from the same heap
		d, took, err := setupDaemon(client, warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		return d, nil
	}
	var d *daemon
	for len(setups) < setupRepeats/2+1 {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if d, err = setup(); err != nil {
			return nil, err
		}
	}
	defer d.stop() //nolint:errcheck // a failed stop after a finished run changes no figure

	before, err := scrape(client, d.url)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	cacheBefore := d.srv.CacheStats()
	w := openWindow()
	fire(client, d.url, reqs, tr)
	w.close()
	cacheAfter := d.srv.CacheStats()
	after, err := scrape(client, d.url)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	rss := peakRSSMB() // before the later set-ups boot a second daemon
	for len(setups) < setupRepeats {
		sd, err := setup()
		if err != nil {
			return nil, err
		}
		if err := sd.stop(); err != nil {
			return nil, err
		}
	}

	rep := &report{attempted: int64(len(reqs))}
	fail := func(err error) {
		rep.failed++
		if rep.firstErr == nil {
			rep.firstErr = err
		}
	}
	// Answer checks, outside the timed window: every response against
	// the workload invariants, hits against their set-up miss, and every
	// serveVerifyGap-th miss plus the whole warm fill against a local solve.
	var lat, hitLat, missLat, lag, hitQueue, missQueue, hitHandler, missSolve dist
	var avg, busyMS float64
	misses := 0
	for i := range reqs {
		r := &reqs[i]
		lag = append(lag, ms(r.sent-r.due))
		if err := checkAnswer(r, d.warm); err != nil {
			fail(fmt.Errorf("request %d: %w", i, err))
			continue
		}
		if !r.hit() {
			misses++
			if _, isWarm := d.warm[r.seed]; !isWarm && misses%serveVerifyGap == 0 {
				if want, err := localCost(r.seed); err != nil || !sameCost(r.resp.Cost, want) {
					fail(fmt.Errorf("request %d: cost %.12g, local solve %.12g (%v)", i, r.resp.Cost, want, err))
					continue
				}
			}
		}
		l := ms(r.done - r.due)
		lat = append(lat, l)
		avg += r.resp.AvgCost
		if r.hit() {
			hitLat = append(hitLat, l)
			hitQueue = append(hitQueue, r.resp.QueueMS)
			hitHandler = append(hitHandler, ms(r.done-r.sent)-r.resp.QueueMS)
		} else {
			missLat = append(missLat, l)
			missQueue = append(missQueue, r.resp.QueueMS)
			missSolve = append(missSolve, r.resp.SolveMS)
			busyMS += r.resp.SolveMS
		}
	}
	for seed, cost := range d.warm {
		if want, err := localCost(seed); err != nil || !sameCost(cost, want) {
			fail(fmt.Errorf("warm instance %d: set-up cost %.12g, local solve %.12g (%v)", seed, cost, want, err))
		}
	}
	if maxLag, _ := lag.pct(1); maxLag > ms(serveMaxLag) {
		rep.invalid = fmt.Sprintf("generator fell behind: a request went out %.0f ms late", maxLag)
	}

	ok := len(lat)
	cpuMS, allocMB, gcs := w.perOp(len(reqs))
	rep.e2e = []sample{
		{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		{Name: "peak_rss_mb", Value: rss, Unit: "MB", N: 1},
		{Name: "avg_degradation", Value: avg / float64(ok), Unit: "ratio", N: ok},
		lat.pctSample("latency_ms_p50", "ms", 0.5),
		lat.pctSample("latency_ms_p80", "ms", 0.8),
		{Name: "cpu_ms_per_op", Value: cpuMS, Unit: "ms", N: len(reqs)},
	}
	hits := cacheAfter.Hits - cacheBefore.Hits
	cmisses := cacheAfter.Misses - cacheBefore.Misses
	shared := cacheAfter.Shared - cacheBefore.Shared
	poolHits, poolMisses := delta("server_oracle_pool_hits"), delta("server_oracle_pool_misses")
	rejected := delta("server_rejected_queue_full") + delta("server_rejected_deadline") +
		delta("server_rejected_draining") + delta("server_rejected_client_gone")
	rep.extra = []sample{
		lat.pctSample("latency_ms_p90", "ms", 0.9),
		lat.pctSample("latency_ms_p99", "ms", 0.99),
		hitLat.pctSample("hit_latency_ms_p50", "ms", 0.5),
		hitLat.pctSample("hit_latency_ms_p99", "ms", 0.99),
		missLat.pctSample("miss_latency_ms_p50", "ms", 0.5),
		missLat.pctSample("miss_latency_ms_p90", "ms", 0.9),
		{Name: "error_rate", Value: float64(rep.failed) / float64(len(reqs)), Unit: "ratio", N: len(reqs)},
		hitQueue.pctSample("server.hit_queue_ms_p99", "ms", 0.99),
		missQueue.pctSample("server.miss_queue_ms_p50", "ms", 0.5),
		{Name: "server.worker_busy_ratio", Value: busyMS / ms(w.wall), Unit: "ratio", N: len(missSolve)},
		hitHandler.pctSample("server.hit_handler_ms_p50", "ms", 0.5),
		missSolve.pctSample("server.miss_solve_ms_p50", "ms", 0.5),
		{Name: "server.oracle_pool_hit_ratio", Value: poolHits / (poolHits + poolMisses), Unit: "ratio"},
		{Name: "server.rejected", Value: rejected, Unit: "count"},
		{Name: "solvecache.hits", Value: float64(hits), Unit: "count"},
		{Name: "solvecache.misses", Value: float64(cmisses), Unit: "count"},
		{Name: "solvecache.shared", Value: float64(shared), Unit: "count"},
		{Name: "solvecache.evictions", Value: float64(cacheAfter.Evictions - cacheBefore.Evictions), Unit: "count"},
		{Name: "solvecache.hit_ratio", Value: float64(hits+shared) / float64(hits+cmisses+shared), Unit: "ratio"},
		lag.pctSample("loadgen.lag_ms_p99", "ms", 0.99),
	}

	solves := delta("span_search_ms_count")
	phase := func(name string) sample {
		return sample{Name: "phase." + name + "_ms", Value: delta("span_"+name+"_ns") / 1e6 / solves, Unit: "ms", N: int(solves)}
	}
	expanded, generated := delta("astar_expanded"), delta("astar_generated")
	reused, allocated := delta("astar_pool_reused"), delta("astar_pool_allocated")
	rep.layer = []sample{
		{Name: "cosched.build_ms", Value: math.NaN(), Unit: "ms"},
		{Name: "cosched.fingerprint_ms", Value: math.NaN(), Unit: "ms"},
		phase("oracle"), phase("graph"), phase("prepare"), phase("search"),
		{Name: "astar.expanded", Value: expanded, Unit: "count", N: int(solves)},
		{Name: "astar.generated", Value: generated, Unit: "count", N: int(solves)},
		{Name: "astar.dismissed", Value: delta("astar_dismissed_worse") + delta("astar_dismissed_stale"), Unit: "count", N: int(solves)},
		{Name: "astar.expanded_per_s", Value: expanded / (delta("span_search_ns") / 1e9), Unit: "1/s", N: int(solves)},
		{Name: "astar.useful_ratio", Value: expanded / generated, Unit: "ratio", N: int(solves)},
		{Name: "astar.elem_reuse_ratio", Value: reused / (reused + allocated), Unit: "ratio", N: int(solves)},
		{Name: "astar.max_queue", Value: after["astar_frontier_max"], Unit: "count", N: 1},
		{Name: "astar.keytable_entries", Value: after["astar_keytable_entries"], Unit: "count", N: 1},
		{Name: "go.alloc_mb_per_op", Value: allocMB, Unit: "MB", N: len(reqs)},
		{Name: "go.gc_cycles_per_op", Value: gcs, Unit: "count", N: len(reqs)},
	}
	rep.counts = map[string]float64{
		"astar.expanded": expanded, "astar.generated": generated,
		"astar.dismissed": delta("astar_dismissed_worse") + delta("astar_dismissed_stale"),
		"solvecache.hits": float64(hits), "solvecache.misses": float64(cmisses),
		"avg_degradation": avg / float64(ok),
	}
	for _, r := range reqs {
		rep.instances = append(rep.instances, r.seed)
	}

	if tr != nil {
		if err := replay(reqs, tr, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// replay re-runs the hit path of every answered request through the
// public calls the handler makes — decode, build, fingerprint, a
// solution-cache hit, encode — timing each as a span of a "request"
// operation numbered after the HTTP operations.
func replay(reqs []serveRequest, tr *tracer, rep *report) error {
	opts := cosched.Options{Method: cosched.MethodHAStar}
	okeys := opts.Fingerprint()
	cache := solvecache.New[*solvecache.Solution](4*len(reqs)+64, nil)
	keys := make([]string, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		if r.err != nil {
			continue
		}
		inst, err := cosched.SyntheticSerial(serveJobs, cosched.QuadCore, r.seed)
		if err != nil {
			return err
		}
		fp, err := inst.Fingerprint()
		if err != nil {
			return err
		}
		keys[i] = fp + "|" + okeys + "|solve"
		cache.Put(keys[i], &solvecache.Solution{Cost: r.resp.Cost, AvgCost: r.resp.AvgCost, Groups: r.resp.Groups, Machines: r.resp.Machines, SolveMS: r.resp.SolveMS})
	}
	var decode, build, fp, do, encode dist
	var hits int
	for i := range reqs {
		r := &reqs[i]
		if keys[i] == "" {
			continue
		}
		id := int64(len(reqs) + i)
		t0 := time.Now()
		var req server.SolveRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		t1 := time.Now()
		method, err := cosched.ParseMethod(req.Method)
		if err != nil {
			return err
		}
		inst, err := cosched.SyntheticSerial(req.Synthetic, cosched.QuadCore, req.Seed)
		if err != nil {
			return err
		}
		t2 := time.Now()
		ifp, err := inst.Fingerprint()
		if err != nil {
			return err
		}
		key := ifp + "|" + cosched.Options{Method: method}.Fingerprint() + "|solve"
		t3 := time.Now()
		sol, outcome, err := cache.Do(key, func() (*solvecache.Solution, bool, error) {
			return nil, false, fmt.Errorf("replay key missing from cache")
		})
		if err != nil {
			return err
		}
		if outcome == solvecache.Hit {
			hits++
		}
		t4 := time.Now()
		resp := server.SolveResponse{Cost: sol.Cost, AvgCost: sol.AvgCost, Groups: sol.Groups, Machines: sol.Machines,
			Method: method.String(), Cached: true, SolveMS: sol.SolveMS}
		if err := json.NewEncoder(io.Discard).Encode(&resp); err != nil {
			return err
		}
		t5 := time.Now()
		root := tr.add(id, -1, "request", t0, t5)
		tr.add(id, root, "decode", t0, t1)
		tr.add(id, root, "build", t1, t2)
		tr.add(id, root, "fingerprint", t2, t3)
		tr.add(id, root, "cache_do", t3, t4)
		tr.add(id, root, "encode", t4, t5)
		decode = append(decode, us(t1.Sub(t0)))
		build = append(build, ms(t2.Sub(t1)))
		fp = append(fp, ms(t3.Sub(t2)))
		do = append(do, us(t4.Sub(t3)))
		encode = append(encode, us(t5.Sub(t4)))
	}
	rep.layer[0] = sample{Name: "cosched.build_ms", Value: build.mean(), Unit: "ms", N: len(build)}
	rep.layer[1] = sample{Name: "cosched.fingerprint_ms", Value: fp.mean(), Unit: "ms", N: len(fp)}
	rep.extra = append(rep.extra,
		sample{Name: "request.decode_us", Value: decode.mean(), Unit: "us", N: len(decode)},
		sample{Name: "request.cache_do_us", Value: do.mean(), Unit: "us", N: len(do)},
		sample{Name: "request.encode_us", Value: encode.mean(), Unit: "us", N: len(encode)},
		sample{Name: "request.replay_hits", Value: float64(hits), Unit: "count", N: len(do)},
	)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
