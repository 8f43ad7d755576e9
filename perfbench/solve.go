package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/incentive"
)

// solveCold: one op is a TI-CSRM solve of the WC instance followed by one
// of the TIC instance for each of the run's solver seeds, ShareSamples
// off, so every op samples all of its RR sets afresh: the op is dominated
// by RR sampling (init and growth).
func solveCold(r *run) error {
	return solveLoop(r, []string{"epinions", "flixster"}, false,
		func(string) []float64 { return []float64{0.2} })
}

// solveWarm: one op re-plans the WC instance over the 5-point α grid for
// each of the run's solver seeds, on one Engine with ShareSamples on.
// Set-up fills the engine's universe cache (one universe per solver
// seed), so ops draw no new RR sets beyond the KPT estimate and selection
// is the largest phase.
func solveWarm(r *run) error {
	return solveLoop(r, []string{"epinions"}, true, alphaGrid)
}

// solverSeeds is how many solver seeds one op solves with. The work of a
// solve (its RR sets and growth events) depends on its seed; an op that
// covers several seeds varies less from one workload seed to the next.
const solverSeeds = 3

// target is one instance's state in a solve workload.
type target struct {
	wb   *eval.Workbench
	jobs []job
}

// job is one solve of an op.
type job struct {
	p    *core.Problem
	opt  core.Options
	want *core.Allocation // the warm-up op's allocation
}

func solveLoop(r *run, presets []string, share bool, alphas func(string) []float64) error {
	var ins []instance
	for _, name := range presets {
		in, err := prepare(r.dir, name)
		if err != nil {
			return err
		}
		ins = append(ins, in)
	}
	rng := newRNG(r.seed, 3)
	var opts []core.Options
	for k := 0; k < solverSeeds; k++ {
		opts = append(opts, solveOptions(rng.Uint64(), share))
	}

	// op runs every solve once; traced ops record spans and the phase hook.
	var last opStats
	op := func(targets []*target, i int, tr *tracer) error {
		var id int
		start := time.Now()
		if tr != nil {
			id = tr.reserve()
		}
		var st opStats
		var firstErr error
		for _, t := range targets {
			for j := range t.jobs {
				jb := &t.jobs[j]
				a, stats, err := solve(tr, id, i, t.wb.Engine(), jb.p, jb.opt)
				if err != nil {
					return fmt.Errorf("solve: %w", err)
				}
				st.add(stats)
				if jb.want == nil {
					jb.want = a
				}
				over, err := checkAllocation(jb.p, a, jb.want)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				r.metrics["core.budget_overshoot"] = max(r.metrics["core.budget_overshoot"], over)
			}
		}
		tr.finish(id, "bench.op", 0, i, start, time.Now())
		last = st
		return firstErr
	}

	var targets []*target
	var setupTimes, workbenchTimes []float64
	for s := 0; s < setups; s++ {
		targets = nil
		runtime.GC()
		start := time.Now()
		var wbTime time.Duration
		for _, in := range ins {
			t0 := time.Now()
			wb, err := in.workbench(r.tr)
			if err != nil {
				return err
			}
			wbTime += time.Since(t0)
			t := &target{wb: wb}
			for _, opt := range opts {
				for _, a := range alphas(in.preset) {
					t.jobs = append(t.jobs, job{p: wb.Problem(incentive.Linear, a), opt: opt})
				}
			}
			targets = append(targets, t)
		}
		// The warm-up op fills lazy state (edge probabilities, the
		// sampling pool, the universe cache) and fixes the reference
		// allocations every timed op must reproduce.
		if err := op(targets, -1, nil); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		workbenchTimes = append(workbenchTimes, ms(wbTime))
	}
	r.metrics["setup_s"] = median(setupTimes)
	r.metrics["eval.workbench_ms"] = median(workbenchTimes)

	counters := func() (hits, misses int64) {
		for _, t := range targets {
			c := t.wb.Engine().Counters()
			hits += c.UniverseCacheHits
			misses += c.UniverseCacheMisses
		}
		return hits, misses
	}
	runtime.GC()
	if err := resetPeakRSS("self"); err != nil {
		return err
	}
	h0, m0 := counters()
	alloc0, gc0 := runtimeCounters()
	cpu0, err := cpuSeconds("self")
	if err != nil {
		return err
	}
	var lat, latTraced, latPlain []float64
	tracedOps := map[int]bool{}
	start := time.Now()
	for i := 0; time.Since(start) < r.seconds; i++ {
		var tr *tracer
		// A traced run traces every other op; the untraced ones between
		// them give the tracing overhead.
		if r.traced() && i%2 == 0 {
			tr = r.tr
			tracedOps[i] = true
		}
		t0 := time.Now()
		err := op(targets, i, tr)
		d := ms(time.Since(t0))
		lat = append(lat, d)
		if tr != nil {
			latTraced = append(latTraced, d)
		} else {
			latPlain = append(latPlain, d)
		}
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("op %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	cpu1, err := cpuSeconds("self")
	if err != nil {
		return err
	}
	alloc1, gc1 := runtimeCounters()
	h1, m1 := counters()

	r.metrics["p50_ms"] = median(lat)
	r.metrics["cpu_ms_per_op"] = 1000 * (cpu1 - cpu0) / float64(r.attempted)
	r.metrics["ops_per_s"] = float64(r.attempted-r.failed) / elapsed.Seconds()
	r.metrics["ok_share"] = float64(r.attempted-r.failed) / float64(r.attempted)
	ops := float64(r.attempted)
	r.metrics["runtime.alloc_mb_per_op"] = float64(alloc1-alloc0) / (1 << 20) / ops
	r.metrics["runtime.gc_cycles_per_op"] = float64(gc1-gc0) / ops
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		r.metrics["core.universe_hit_ratio"] = float64(h1-h0) / float64(lookups)
	}
	last.report(r)

	revenue := 0.0
	var evals evalTally
	for _, t := range targets {
		for _, jb := range t.jobs {
			v, err := evals.evaluate(r.tr, t.wb.Engine(), jb.p, jb.want, evalRuns, evalWorkers)
			if err != nil {
				return fmt.Errorf("evaluate: %w", err)
			}
			revenue += v
		}
	}
	evals.report(r)
	r.metrics["revenue"] = revenue
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = rss

	if r.traced() {
		n := float64(len(tracedOps))
		tot := spanTotals(r.tr.snapshot(), tracedOps)
		r.metrics["core.init_ms"] = ms(tot["core.init"]) / n
		r.metrics["core.growth_ms"] = ms(tot["core.growth"]) / n
		r.metrics["core.select_ms"] = ms(tot["core.select"]) / n
		r.metrics["trace.overhead_ms"] = median(latTraced) - median(latPlain)
		r.noise["op_ms_traced"] = median(latTraced)
		wbs := make([]*eval.Workbench, len(targets))
		for k, t := range targets {
			wbs[k] = t.wb
		}
		if err := probeLayers(r, ins, wbs); err != nil {
			return err
		}
	}
	return nil
}
