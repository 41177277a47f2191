// Command pvperf is the repository's benchmark. One invocation runs one
// workload against the PV-index, checks sampled answers against the
// linear-scan oracles, and prints every metric by name and unit; the last
// line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// tracing; with -trace 1 they are the per-layer metrics, taken from spans
// the benchmark records around its own calls into each layer's exported
// functions and from the counters those functions return.
//
// Usage (from the repository root, after building with pvperf/run.sh):
//
//	pvperf -workload read-uniform -seed 1 -seconds 10 -trace 0 -pvserve <binary> -workdir <dir>
//
// The workloads, their sizes and the layer each per-layer metric belongs
// to are described in pvperf/DESIGN.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of the in-process workloads: a change may
// not worsen any by more than its bound in BENCHMARK.json. Apart from
// heap_mb they are CPU times (cpuclock.go says why) scaled by the run's
// speed factor (calib.go): setup_s, commits, checkpoints and recoveries
// read the process's CPU clock, the read latencies the calling thread's.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"pnnq_cpu_p50_us", "us"},
	{"knn_cpu_p50_us", "us"},
	{"groupnn_cpu_p50_us", "us"},
	{"commit_cpu_p50_ms", "ms"},
	{"commit_cpu_tail_ms", "ms"},
	{"checkpoint_cpu_s", "s"},
	{"recovery_cpu_s", "s"},
}

// wallClock are the end-to-end metrics as a caller's clock reads them. The
// in-process workloads print them in their report but leave them out of
// the JSON result, because their run-to-run spread follows the host's CPU
// steal (DESIGN.md has the figures); serve-mixed, which is not gated and
// whose server's CPU clocks are in another process, reports them as its
// result.
var wallClock = []metricDef{
	{"setup_wall_s", "s"},
	{"heap_mb", "MiB"},
	{"read_qps", "ops/s"},
	{"pnnq_p50_us", "us"},
	{"pnnq_p99_us", "us"},
	{"knn_p50_us", "us"},
	{"knn_p99_us", "us"},
	{"groupnn_p50_us", "us"},
	{"groupnn_p99_us", "us"},
	{"write_ups", "updates/s"},
	{"commit_p50_ms", "ms"},
	{"commit_tail_ms", "ms"},
	{"checkpoint_s", "s"},
	{"recovery_s", "s"},
}

// perLayer are the traced run's metrics, one or more per layer. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"pvindex.step1_us", "us"},
	{"octree.leaf_io_per_query", "count"},
	{"pvindex.candidates_per_pnnq", "count"},
	{"pvindex.fetch_us", "us"},
	{"pvindex.rcache_hit_ratio", "ratio"},
	{"pagestore.reads_per_query", "count"},
	{"pnnq.dp_us", "us"},
	{"pnnq.knn_dp_us", "us"},
	{"pnnq.group_dp_us", "us"},
	{"extquery.knn_retrieve_us", "us"},
	{"extquery.groupnn_retrieve_us", "us"},
	{"adjgraph.nodes_per_knn", "count"},
	{"adjgraph.edges_per_knn", "count"},
	{"adjgraph.edges_per_groupnn", "count"},
	{"extquery.knn_cands_per_node", "ratio"},
	{"rtree.build_s", "s"},
	{"core.cset_us_per_ubr", "us"},
	{"core.cset_size", "count"},
	{"core.se_us_per_ubr", "us"},
	{"core.iterations_per_ubr", "count"},
	{"domination.tests_per_ubr", "count"},
	{"domination.ns_per_test", "ns"},
	{"refine.rows_built", "count"},
	{"pvindex.batch_se_ms", "ms"},
	{"pvindex.batch_index_ms", "ms"},
	{"pvindex.affected_per_update", "count"},
	{"pvindex.affected_over_examined", "ratio"},
	{"refine.ms_per_commit", "ms"},
	{"refine.shrink_ratio", "ratio"},
	{"vfs.fsyncs_per_commit", "count"},
	{"vfs.fsync_ms", "ms"},
	{"vfs.write_bytes_per_update", "bytes"},
	{"vfs.checkpoint_write_ms", "ms"},
	{"vfs.recovery_read_ms", "ms"},
	{"recovery.ms_per_replayed_update", "ms"},
	{"mvcc.pending_versions_max", "count"},
	{"mvcc.reclaimed", "count"},
	{"mvcc.read_slowdown_ratio", "ratio"},
	{"pvserve.overhead_us", "us"},
	{"pvserve.shed", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"alloc_bytes_per_op", "bytes"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads are the runnable workloads. BENCHMARK.json gates the first
// two; serve-mixed stays runnable, ungated, for the HTTP layer (DESIGN.md).
var workloads = []string{"read-uniform", "churn-clustered", "serve-mixed"}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // the run's own directory, removed when the run ends
	traceDir string // where traced runs leave their spans
	pvserve  string

	attempted, failed atomic.Int64
	checked           atomic.Int64 // answers compared with an oracle

	ref      *refKernel
	refTimes []float64 // reference kernel CPU times, µs

	mu      sync.Mutex
	errs    []string
	notes   []string
	metrics map[string]float64
}

// fail counts one failed operation and keeps its message for the report.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = v
}

// setPercentile stores percentile p of xs, counting a refused percentile
// as a failed run.
func (r *run) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.fail("%s: %v", name, err)
		return
	}
	r.set(name, v)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, " | "))
		seed     = flag.Int64("seed", 1, "workload seed: the generated inputs derive from it (DESIGN.md)")
		seconds  = flag.Int("seconds", 10, "measured seconds of traffic")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		pvserve  = flag.String("pvserve", "", "pvserve binary (serve-mixed)")
		workdir  = flag.String("workdir", ".bench_build/pvperf", "directory for stores, datasets and traces")
	)
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "pvperf: want -workload %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	res, err := execute(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *pvserve, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvperf: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result, printing a
// human-readable report (with error_rate and the percentiles used) before
// the caller prints the JSON line.
func execute(workload string, seed int64, seconds time.Duration, trace bool, pvserve, workdir string) (*resultJSON, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newRun(workload, seed, seconds, trace, dir, filepath.Join(workdir, "traces"), pvserve)
	r.note("env: %s GOMAXPROCS=%d NumCPU=%d GOGC=%q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GOGC"))
	switch workload {
	case "serve-mixed":
		err = runServe(r, serveMixed)
	default:
		err = runInproc(r, inprocSpecs[workload])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	res := r.result()
	r.report(res)
	return res, nil
}

func newRun(workload string, seed int64, seconds time.Duration, trace bool, dir, traceDir, pvserve string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		dir: dir, traceDir: traceDir, pvserve: pvserve,
		metrics: make(map[string]float64),
	}
}

// gated reports whether the run's JSON result holds BENCHMARK.json's
// end-to-end metrics: an untraced run of an in-process workload.
func (r *run) gated() bool { return !r.trace && r.workload != "serve-mixed" }

// resultDefs are the metrics the run's JSON result carries.
func (r *run) resultDefs() []metricDef {
	switch {
	case r.trace:
		return perLayer
	case r.gated():
		return endToEnd
	default:
		return wallClock
	}
}

// result collects the metrics the run's mode reports; a metric the run
// did not measure is a failure.
func (r *run) result() *resultJSON {
	res := &resultJSON{Metrics: make(map[string]metricJSON)}
	defs := r.resultDefs()
	gated := r.gated()
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			r.fail("metric %s was not measured", d.name)
			continue
		}
		if gated && d.name != "heap_mb" {
			v /= r.speedFactor()
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func (r *run) report(res *resultJSON) {
	fmt.Printf("pvperf %s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, r.seconds.Seconds(), r.trace)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  oracle: %d sampled answers checked\n", r.checked.Load())
	type line struct {
		label, unit string
		value       float64
	}
	var lines []line
	for n, m := range res.Metrics {
		lines = append(lines, line{n, m.Unit, m.Value})
	}
	if r.gated() {
		fmt.Printf("  speed factor %.4f: reference kernel median %.0fus of %d (nominal %.0fus); the gated CPU times are divided by it\n",
			r.speedFactor(), median(r.refTimes), len(r.refTimes), us(refNominal))
		for _, d := range endToEnd {
			if v, ok := r.metrics[d.name]; ok && d.name != "heap_mb" {
				lines = append(lines, line{d.name + " (CPU as measured)", d.unit, v})
			}
		}
		for _, d := range wallClock {
			if v, ok := r.metrics[d.name]; ok && d.name != "heap_mb" {
				lines = append(lines, line{d.name + " (wall, not gated)", d.unit, v})
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].label < lines[j].label })
	for _, l := range lines {
		fmt.Printf("  %-34s %14.4f %s\n", l.label, l.value, l.unit)
	}
	fmt.Printf("  %-34s %14.6f failed/attempted (%d/%d)\n", "error_rate", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, e := range r.errs {
		fmt.Println("  FAILED: " + e)
	}
}
