// Command perfbench is the repository's benchmark: one run measures one
// workload end to end, checks every output it measures, and prints every
// metric by name and unit, ending with one JSON result line.
//
//	bash perfbench/run.sh --workload route-14k --seed 1 --seconds 30 --trace 0
//
// Workloads (sizes in serving.go and suite.go):
//
//   - route-14k: a ~14k-point UDG-SENS snapshot served over loopback HTTP;
//     closed-loop POST /query/route with 4 member pairs per query. The
//     graph is tiny and sparse, so HTTP, JSON, the worker pool and the
//     batcher's flush timer dominate.
//   - stretch-100k: a ~102k-point snapshot (~2.5M base edges) answering
//     POST /query/stretch at β=2, one pair per query. Full-graph Dijkstra
//     sweeps over the dense base dominate, and set-up pays the large
//     deploy, base, SENS build and weight-slab fill.
//   - paper-suite: scenario.Engine.Run over every registered scenario at
//     the golden configuration (seed 2026, scale 0.15), Jobs=1 like the
//     CLI, every table byte-compared with internal/experiments/testdata.
//     The suite's run time depends strongly on its seed (on a 2-vCPU VM,
//     M03 alone took 1.1–7.6 s over seeds 1–5), so this workload always
//     runs the golden seed and --seed does not change it.
//
// Both serving workloads seed the snapshot with --seed and draw their
// query stream from it, run the daemon with its shipped defaults
// (serve.Config{}) in this process, and load it from two closed-loop
// clients on two keep-alive connections, never more than the CPU count.
//
// The end-to-end metrics of the JSON line are the same six names on every
// workload. An operation is one query on the serving workloads and one full
// pass over the scenarios on paper-suite.
//
//   - setup_s: serving, POST /snapshots until the first warm-up query is
//     answered (build plus lazy slab fill), median over fresh daemons;
//     paper-suite, the process's first, untimed pass.
//   - ops_per_s, p50_ms, tail_ms: throughput, median and tail latency of
//     the timed phase (tail = p99 route, p90 stretch, slowest pass suite).
//     On route-14k they cover the quarter of its 0.5 s windows that
//     completed the most queries, which leaves out bursts of outside load.
//   - peak_rss_mb: the process VmHWM after the timed phase, one workload
//     per process so peaks never mix.
//   - heap_mb: live heap after runtime.GC: the snapshot after set-up, or
//     the suite engine's caches after its last pass.
//
// The report lines above the JSON repeat them under their workload names
// (route_p99_ms, suite_s, snapshot_heap_mb, ...) with sample counts, plus
// failed_frac and the run environment. Every response or table measured is
// checked; a wrong one counts as failed and the command exits 1.
//
// --trace 1 runs the traced mode instead: a short untraced phase for
// reference, then the same query stream stepped down the layers (client +
// wrapped handler over loopback, serve.Batcher, power.Measurer, then the
// set-up rebuilt call by call), or on paper-suite one span per scenario.
// Its JSON line carries the per-layer metrics; a layer the workload does
// not call reads 0. Spans are kept in memory and written as JSON lines to
// <out>/trace-<workload>-<seed>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/memprof"
)

// now reads the wall clock. Every figure this command reports is a wall
// time or a count, so the clock is read here and nowhere else.
func now() time.Time {
	//sensvet:allow detclock — the benchmark measures wall time; no program result depends on it
	return time.Now()
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_ms", "tail_ms", "peak_rss_mb", "heap_mb"}

// report collects a run's metrics. Every added metric is printed as a
// report line; finish picks the ones the JSON line carries.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]metric{}}
}

// add prints one metric with its unit and sample count and keeps it.
func (r *report) add(name string, v float64, unit string, n int, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("metric %-34s %14.6g %-6s n=%d", name, v, unit, n)
	if note != "" {
		line += "  (" + note + ")"
	}
	fmt.Fprintln(r.w, line)
}

// note prints a free-text report line.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// runConfig is what one invocation measures.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory for trace files
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "route-14k | stretch-100k | paper-suite")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	out := fs.String("out", ".bench_build", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}

	rep := newReport(stdout)
	rep.note("env goos=%s goarch=%s go=%s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g trace=%v",
		runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cfg.seed, cfg.seconds, cfg.trace)

	var res result
	var err error
	if w, ok := servingWorkloads[*workload]; ok {
		res, err = runServing(w, cfg, rep)
	} else if *workload == suiteWorkload.name {
		res, err = runSuite(suiteWorkload, cfg, rep)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or answered wrongly\n",
			*workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// finish builds the result line from the report: the end-to-end metrics
// for an untraced run, the per-layer metrics for a traced one. A metric the
// run did not measure reads 0, which only per-layer metrics may do.
func finish(rep *report, trace bool, attempted, failed int) (result, error) {
	names, units := endToEnd, map[string]string(nil)
	if trace {
		names, units = perLayerNames()
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range names {
		m, ok := rep.metrics[name]
		if !ok {
			if !trace {
				return res, fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			m = metric{Value: 0, Unit: units[name]}
		}
		res.Metrics[name] = m
	}
	if attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	ff := float64(failed) / float64(attempted)
	rep.add("failed_frac", ff, "ratio", attempted, "failed or wrong over attempted")
	return res, nil
}

// durMs and durS convert durations to the reported units.
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func durS(d time.Duration) float64  { return d.Seconds() }

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, which it
// sorts in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// peakRSSMB reads the process high-water mark in MiB.
func peakRSSMB() (float64, error) {
	b, ok := memprof.PeakRSS()
	if !ok {
		return 0, fmt.Errorf("peak RSS unavailable (no /proc/self/status)")
	}
	return float64(b) / (1 << 20), nil
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
