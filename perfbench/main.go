// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time against the solver library (solve-cold, solve-warm) or
// an rmserved subprocess (serve-mixed), checks every output, and prints
// one JSON result line:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"p50_ms": {"value": 1631.2, "unit": "ms"}, ...}}
//
// With -trace=0 the metrics are the end-to-end ones, with -trace=1 the
// per-layer ones (see README.md). The line before it carries host-noise
// readings. Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"ops_per_s", "1/s"},
	{"revenue", "revenue"},
	{"ok_share", "share"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer that does no work on a
// workload (serve and wal on solve-*, the in-process solver phases on
// serve-mixed, whose solves run inside rmserved) reports 0.
var perLayer = []metricDef{
	{"dataset.open_ms", "ms"},
	{"eval.workbench_ms", "ms"},
	{"rrset.sets_per_s", "1/s"},
	{"rrset.nodes_per_s", "1/s"},
	{"rrset.width_per_s", "1/s"},
	{"rrset.kpt_ms", "ms"},
	{"core.init_ms", "ms"},
	{"core.growth_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.rr_sets", "count"},
	{"core.growth_events", "count"},
	{"core.seeds", "count"},
	{"core.rr_memory_mb", "MB"},
	{"core.sampler_memory_mb", "MB"},
	{"core.universe_hit_ratio", "ratio"},
	{"core.budget_overshoot", "share"},
	{"core.evaluate_ms", "ms"},
	{"core.cascades_per_s", "1/s"},
	{"core.invalidated_sets_per_mutate", "count"},
	{"core.repaired_sets_per_mutate", "count"},
	{"serve.p95_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.evaluate_p50_ms", "ms"},
	{"serve.mutate_p50_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"wal.fsync_ms_per_append", "ms"},
	{"wal.bytes_per_append", "B"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"loadgen.late_p95_ms", "ms"},
	{"host.steal_share", "share"},
	{"trace.overhead_ms", "ms"},
	{"self.dataset_ms", "ms"},
	{"self.eval_ms", "ms"},
	{"self.rrset_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.serve_ms", "ms"},
	{"self.bench_ms", "ms"},
}

// run is the state one workload fills in.
type run struct {
	seed     uint64
	seconds  time.Duration
	tr       *tracer // nil unless -trace=1
	dir      string  // scratch directory, removed at exit
	rmserved string  // rmserved binary (serve-mixed)

	metrics   map[string]float64
	noise     map[string]any
	attempted int
	failed    int
	problems  []string // failed checks, reported on stderr
}

func (r *run) traced() bool { return r.tr != nil }

// fail records a failed check; the op it belongs to counts as failed.
func (r *run) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*run) error{
	"solve-cold":  solveCold,
	"solve-warm":  solveWarm,
	"serve-mixed": serveMixed,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: solve-cold | solve-warm | serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: fixes every op's inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	build := flag.String("build", ".bench_build", "directory for scratch files and traces")
	rmserved := flag.String("rmserved", "", "rmserved binary (serve-mixed)")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *build, *rmserved); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errChecksFailed ends a run whose result line was printed but whose ops
// did not all succeed and pass their checks.
var errChecksFailed = errors.New("some ops failed or did not pass their checks")

func mainErr(workload string, seed uint64, seconds, trace int, build, rmserved string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want solve-cold, solve-warm or serve-mixed)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{seed: seed, seconds: time.Duration(seconds) * time.Second, dir: dir,
		rmserved: rmserved, metrics: map[string]float64{}, noise: map[string]any{}}
	if trace == 1 {
		r.tr = newTracer()
	}
	steal0, total0 := cpuTimes()
	cpuStart, memStart, err := calibrate()
	if err != nil {
		return err
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	cpuEnd, memEnd, err := calibrate()
	if err != nil {
		return err
	}
	steal1, total1 := cpuTimes()
	steal := stealShare(steal0, total0, steal1, total1)
	r.metrics["host.steal_share"] = steal

	if r.traced() {
		for layer, d := range selfTimes(r.tr.snapshot()) {
			r.metrics["self."+layer+"_ms"] = ms(d)
		}
		tdir := filepath.Join(build, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.noise["trace_file"] = path
	}

	defs := endToEnd
	if r.traced() {
		defs = perLayer
	}
	res := resultOut{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	res.Correct = r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !r.traced() {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	r.noise["steal_share"] = steal
	r.noise["calib_cpu_start_ms"] = cpuStart
	r.noise["calib_cpu_end_ms"] = cpuEnd
	r.noise["calib_mem_start_ms"] = memStart
	r.noise["calib_mem_end_ms"] = memEnd
	noise, err := json.Marshal(map[string]any{"host": r.noise})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Println(string(noise))
	fmt.Println(string(line))
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
