// Command perfbench is the repository's benchmark: the paper-figure
// suite plus hot, cold and clustered service traffic. One run measures
// one workload for a given number of seconds and prints its metrics by
// name and unit; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. An untraced
// run drives a closed loop and reports the end-to-end metrics. With
// -trace 1 the run attaches a telemetry collector, adds open-loop
// phases at the workload's fixed rates, records spans and reports the
// per-layer metrics instead.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and the
// metrics; perfbench/README.md describes them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"suite_s", "s"},
	{"throughput_rps", "1/s"},
}

// precondNames are the preconditioners solver.solves.<precond> counts.
var precondNames = []string{"jacobi", "zline", "multigrid"}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, rg := range regens {
		out = append(out, metricDef{"experiments." + rg.name + "_s", "s"})
	}
	out = append(out,
		metricDef{"solver.solves", "count"},
		metricDef{"solver.iterations", "count"},
		metricDef{"solver.iters_per_solve", "count"},
		metricDef{"solver.fallbacks", "count"},
		metricDef{"solver.warm_starts", "count"},
	)
	for _, pc := range precondNames {
		out = append(out, metricDef{"solver.solves." + pc, "count"})
	}
	return append(out,
		metricDef{"solver.solve_s", "s"},
		metricDef{"solver.solve_share", "ratio"},
		metricDef{"pillar.rc_evals", "count"},
		metricDef{"pillar.full_verifies", "count"},
		metricDef{"pillar.bound_violations", "count"},
		metricDef{"specio.parse_us", "us"},
		metricDef{"specio.normalize_us", "us"},
		metricDef{"specio.build_ms", "ms"},
		metricDef{"specio.encode_us", "us"},
		metricDef{"serve.keys_us", "us"},
		metricDef{"solver.cold_solve_ms", "ms"},
		metricDef{"rom.reduce_ms", "ms"},
		metricDef{"rom.eval_ms", "ms"},
		metricDef{"solver.trace_ms", "ms"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"solver.family_assembly_hit_ratio", "ratio"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.queue_depth.max", "count"},
		metricDef{"serve.unattributed_share", "ratio"},
		metricDef{"serve.key_answer_changes", "count"},
		metricDef{"cluster.peer_hit_ratio", "ratio"},
		metricDef{"cluster.peer_fallbacks", "count"},
		metricDef{"cluster.peer_hedges", "count"},
		metricDef{"cluster.peer_fills", "count"},
		metricDef{"cluster.peer_gossip", "count"},
		metricDef{"gen.p50_ms.low", "ms"},
		metricDef{"gen.p90_ms.low", "ms"},
		metricDef{"gen.p50_ms.high", "ms"},
		metricDef{"gen.p90_ms.high", "ms"},
		metricDef{"gen.late_ms.p90", "ms"},
		metricDef{"gen.sent", "count"},
		metricDef{"gen.trace_overhead", "x"},
	)
}()

// result is the benchmark's final line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 20, "measured seconds of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spanDir := fs.String("span-dir", ".bench_build/spans", "directory of the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := workloadNamed(*name)
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadList())
		return 2
	}
	b := &bench{wl: wl, seed: *seed, seconds: *seconds, log: stderr}
	var vals map[string]float64
	var defs []metricDef
	var err error
	if *trace == 1 {
		spans := filepath.Join(*spanDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
		vals, err = b.traced(spans)
		defs = perLayer
	} else {
		vals, err = b.untraced()
		defs = endToEnd
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	res := result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]map[string]any{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s has no value\n", wl.name, d.name)
			return 1
		}
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

func workloadList() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, ", ")
}

// resetPeakRSS sets the process's high-water resident set size to its
// current resident set size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set size.
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
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// nproc is the load generator's cap on workers and connections per
// target.
func nproc() int { return runtime.NumCPU() }
