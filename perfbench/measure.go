package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one reported metric: its value, unit and the number of
// observations behind it (0 for a derived or single-shot figure).
type sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Pct is the quantile of a percentile sample (0 otherwise) and Beyond
	// the number of observations above it.
	Pct    float64 `json:"pct,omitempty"`
	Beyond int     `json:"beyond,omitempty"`
}

// dist is a set of observations in milliseconds (or any unit).
type dist []float64

// pct returns the nearest-rank q-quantile (0 < q <= 1) and how many
// observations lie beyond it; NaN for an empty set.
func (d dist) pct(q float64) (float64, int) {
	if len(d) == 0 {
		return math.NaN(), 0
	}
	s := append(dist(nil), d...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// pctSample names a percentile of d as a sample, e.g. latency_ms_p50.
func (d dist) pctSample(name, unit string, q float64) sample {
	v, beyond := d.pct(q)
	return sample{Name: name, Value: v, Unit: unit, N: len(d), Pct: q, Beyond: beyond}
}

func median(vs []float64) float64 {
	v, _ := dist(vs).pct(0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// window measures the Go runtime and CPU cost of a stretch of work.
type window struct {
	start  time.Time
	cpu    time.Duration
	alloc  uint64
	gcs    uint32
	wall   time.Duration
	cpuUse time.Duration
	allocd uint64
	gcd    uint32
}

func openWindow() *window {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &window{start: time.Now(), cpu: cpuTime(), alloc: m.TotalAlloc, gcs: m.NumGC}
}

func (w *window) close() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.wall = time.Since(w.start)
	w.cpuUse = cpuTime() - w.cpu
	w.allocd = m.TotalAlloc - w.alloc
	w.gcd = m.NumGC - w.gcs
}

// perOp returns the window's CPU, allocation and GC figures divided over
// ops operations.
func (w *window) perOp(ops int) (cpuMS, allocMB, gcs float64) {
	n := float64(ops)
	return ms(w.cpuUse) / n, float64(w.allocd) / (1 << 20) / n, float64(w.gcd) / n
}

// environment is the block every output carries, so a figure is never
// read without the machine and settings it came from.
type environment struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	RunSeconds float64        `json:"run_seconds"`
	Trace      bool           `json:"trace"`
	Samples    map[string]int `json:"samples"`
}

func newEnvironment(workload string, seed int64, seconds float64, trace bool) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Workload:   workload,
		Seed:       seed,
		RunSeconds: seconds,
		Trace:      trace,
		Samples:    map[string]int{},
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
