// Command perfbench is the repository's end-to-end checkpoint benchmark.
// It drives three workloads through the public moc.Fleet/moc.System API
// over one canonical storage stack, checks each workload's outputs, and
// prints one JSON result line:
//
//	perfbench --workload pretrain|restore-storm|chaos --seed N --seconds S --trace 0|1
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1
// it holds the per-layer breakdown measured by the boundary probes. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
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

// run is one benchmark invocation's state: the inputs and the tally of
// operations and checks.
type run struct {
	seed    uint64
	seconds int
	trace   bool
	// dir holds every file the run writes.
	dir string

	// ops, when positive, fixes the op count of the measured region
	// (tests use it to run small).
	ops int

	attempted, failed int64
	metrics           map[string]metric
}

// minSamples keeps every p90 on at least 100 samples.
const minSamples = 100

// size is the op count of the measured region: --seconds times the
// workload's nominal rate on the reference host, at least minSamples.
func (r *run) size(perSecond float64) int {
	if r.ops > 0 {
		return r.ops
	}
	return max(minSamples, int(perSecond*float64(r.seconds)))
}

// op counts one operation, failing it when err is non-nil.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
	return err
}

// check counts one output check.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check: "+format, args...))
}

func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.op(fmt.Errorf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to the function that runs it. It sets up,
// runs its measured region with the stack's probes on when traced, sets
// its metrics (end-to-end when untraced, per-layer when traced) and
// returns its throughput for the tracing-overhead comparison.
var workloads = map[string]func(r *run, traced bool) (float64, error){
	"pretrain":      runPretrain,
	"restore-storm": runRestoreStorm,
	"chaos":         runChaos,
}

func main() {
	name := flag.String("workload", "", "workload: pretrain, restore-storm or chaos")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; scales the work of a run")
	trace := flag.Int("trace", 0, "1 reports the per-layer breakdown instead of end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, metrics: map[string]metric{}}
	err = measure(r, fn)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		r.op(err)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs the workload once untraced. A traced run instead makes
// two passes of half the work each, one untraced and one with the probes
// on, and reports the per-layer breakdown of the second and the tracing
// overhead: the untraced throughput over the traced one, minus 1.
func measure(r *run, fn func(*run, bool) (float64, error)) error {
	if r.trace {
		r.seconds = (r.seconds + 1) / 2
	}
	untraced, err := fn(r, false)
	if err != nil || !r.trace {
		return err
	}
	r.metrics = map[string]metric{}
	traced, err := fn(r, true)
	if err != nil {
		return err
	}
	r.set("trace.overhead", "ratio", untraced/traced-1)
	return nil
}

// setupRuns is how many times a workload sets up per run; setup_s is
// the median.
const setupRuns = 5

// timeSetup runs build setupRuns times, tearing down all but the last
// instance, and reports the median set-up time as setup_s. A traced
// pass sets up once.
func timeSetup[T any](r *run, traced bool, build func() (T, error), teardown func(T) error) (T, error) {
	var last T
	n := setupRuns
	if traced {
		n = 1
	}
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			if err := teardown(v); err != nil {
				return last, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		last = v
	}
	if !traced {
		r.set("setup_s", "s", quantile(times, 0.5))
	}
	return last, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// blockRate is the median over consecutive blocks of a run of the ops
// completed per second: a load spike on the host slows one block, not
// the reported rate. done holds each op's completion time since the
// start, in order; blocks of equal op count partition them.
func blockRate(done []float64, blocks int) float64 {
	n := len(done) / blocks
	if n == 0 {
		return 0
	}
	rates := make([]float64, blocks)
	prev := 0.0
	for b := range rates {
		end := done[(b+1)*n-1]
		rates[b] = float64(n) / (end - prev)
		prev = end
	}
	return quantile(rates, 0.5)
}

// perOp divides a total by the workload's op count (0 when none ran).
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
