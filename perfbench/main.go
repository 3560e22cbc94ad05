// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed wall time and prints, as the last line of
// its standard output, a JSON object with the correctness verdict and either
// every end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
//
//	go run . --workload op-harl --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists and which layers it loads):
//
//	op-harl      Table-6 operator tunes with the harl preset (PPO-bound)
//	op-ansor     the same operators with the ansor preset (cost-model refit-bound)
//	net-bert     BERT batch 1 through the concurrent network tuner
//	serve-mixed  the tuning daemon: registry lookups beside tune jobs on a fleet
//
// Inputs derive from --seed only. search_sim_s is the paper's simulated
// search time, a deterministic function of the inputs; it is reported beside
// the wall-clock metrics and never compared with them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts operations and failed output checks; fail_ratio is
// Failed/Attempted.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

// op counts one attempted operation.
func (c *checker) op() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// check records a failed output check when ok is false.
func (c *checker) check(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	c.mu.Lock()
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
	return false
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int    // nproc: the load's thread and connection bound
	dir      string // scratch directory inside the checkout, removed at exit
}

// report is what a workload returns: end-to-end metrics by name (trace off)
// or per-layer metrics (trace on), plus free-form lines for the log.
type report struct {
	metrics map[string]float64
	lines   []string
}

// units of every metric the benchmark can print.
var units = map[string]string{
	"setup_s": "s", "trials_per_s": "1/s", "best_gflops": "GFLOPS", "net_est_ms": "ms",
	"search_sim_s": "s", "peak_rss_mb": "MB", "lookup_p50_ms": "ms",
	"lookup_max_rps": "1/s", "job_s": "s",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_s"), strings.HasSuffix(name, "_s.p50"), strings.HasSuffix(name, "_s.p99"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), name == "bench.trace_overhead":
		return "ratio"
	case name == "tunelog.bytes":
		return "bytes"
	}
	return "count"
}

var workloads = map[string]func(*config, *checker) (report, error){
	"op-harl":     func(c *config, ck *checker) (report, error) { return runOps(c, ck, opHarl) },
	"op-ansor":    func(c *config, ck *checker) (report, error) { return runOps(c, ck, opAnsor) },
	"net-bert":    runNet,
	"serve-mixed": runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var c config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name (op-harl, op-ansor, net-bert, serve-mixed)")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed")
	fs.Float64Var(&c.seconds, "seconds", 20, "measured wall time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fn, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", c.workload)
		return 2
	}
	c.trace = *trace == 1
	c.workers = runtime.NumCPU()
	dir, err := os.MkdirTemp(filepath.Join(".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	c.dir = dir
	defer os.RemoveAll(dir)

	var ck checker
	rep, err := fn(&c, &ck)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if !c.trace {
		rep.metrics["peak_rss_mb"] = peakRSSMB()
	}
	for _, n := range ck.notes {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", n)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		c.workload, c.seed, c.seconds, c.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, l := range rep.lines {
		fmt.Println("  " + l)
	}
	fail := 0.0
	if ck.attempted > 0 {
		fail = float64(ck.failed) / float64(ck.attempted)
	}
	fmt.Printf("  fail_ratio=%g (%d failed of %d attempted)\n", fail, ck.failed, ck.attempted)
	res := result{Correct: ck.failed == 0 && ck.attempted > 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.metrics[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", n)
			return 1
		}
		res.Metrics[n] = metric{Value: v, Unit: unitOf(n)}
		fmt.Printf("  %-28s %14.6g %s\n", n, v, unitOf(n))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deadline reports whether the run's measured time is spent.
func (c *config) deadline(start time.Time) bool {
	return time.Since(start).Seconds() >= c.seconds
}

// setupSamples is how many set-up timings a run takes; setup_s is their
// median.
const setupSamples = 19

// timeSetup sets up setupSamples×batch times. Each sample is the mean of
// batch consecutive set-ups, so a set-up of a millisecond is timed over a
// block long enough that neither the clock nor the machine's moment-to-moment
// drift decides it. Tearing a discarded set-up down is not timed. It returns
// the last set-up, which the run keeps, and the median of the samples.
func timeSetup[T any](batch int, fn func(rep int) (T, error), discard func(T)) (T, float64, error) {
	var keep T
	var ds []float64
	for i := 0; i < setupSamples; i++ {
		var d time.Duration
		for b := 0; b < batch; b++ {
			t0 := time.Now()
			v, err := fn(i*batch + b)
			d += time.Since(t0)
			if err != nil {
				return keep, 0, err
			}
			if i < setupSamples-1 || b < batch-1 {
				discard(v)
			} else {
				keep = v
			}
		}
		ds = append(ds, d.Seconds()/float64(batch))
	}
	return keep, median(ds), nil
}

// splitSeed derives an independent 64-bit stream from a seed and an index
// (splitmix64), so every session's tuning seed follows from --seed alone.
func splitSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
