package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/incentive"
	"repro/internal/rrset"
	"repro/internal/xrand"
)

// The instances are fixed: every workload seed solves the same graphs and
// advertisers, so revenue and op time vary with the workload seed only
// through the solver seeds and the serve traffic.
const (
	// instanceScale divides the paper's dataset sizes: epinions gets
	// n≈2.4k nodes and m≈14k arcs, where an RR set visits tens of arcs
	// per node (at the "tiny" scale it is a third of that), so sampling
	// costs what it costs on real graphs.
	instanceScale = gen.Scale(32)
	instanceSeed  = 1
	adCount       = 2
	epsilon       = 0.5
	// Monte-Carlo evaluation of the revenue metric: fixed seed and a fixed
	// worker split, so the value repeats exactly for one workload seed.
	evalRuns    = 2000
	evalWorkers = 2
	evalSeed    = 0xabcdef
	// setups is how many times a run sets up; setup_s is their median.
	setups = 3
)

// instance is one dataset preset written as an RMSNAP snapshot and
// registered under its path, as `rmsolve -snapshot` and `rmserved
// -snapshot` register it.
type instance struct {
	preset string // "epinions" (WC) or "flixster" (TIC)
	path   string
}

func prepare(dir, preset string) (instance, error) {
	src, err := dataset.Default.Open(preset, instanceScale, xrand.New(instanceSeed))
	if err != nil {
		return instance{}, err
	}
	path := filepath.Join(dir, preset+".snap")
	if err := dataset.Save(path, dataset.SnapshotOf(src, nil)); err != nil {
		return instance{}, err
	}
	if err := dataset.Default.RegisterFile(path, path); err != nil {
		return instance{}, err
	}
	return instance{preset: preset, path: path}, nil
}

// workbench builds the instance's workbench with the parameters rmserved
// uses for a `-snapshot` dataset at h=adCount and -workers=1. The
// workbench cache is dropped first, so every call does the full build.
func (in instance) workbench(tr *tracer) (*eval.Workbench, error) {
	eval.ResetWorkbenchCache()
	var w *eval.Workbench
	var err error
	tr.timed("eval.workbench", 0, -1, func() {
		w, err = eval.NewWorkbench(in.path, eval.Params{Scale: instanceScale, Seed: instanceSeed,
			H: adCount, SampleWorkers: 1})
	})
	return w, err
}

// alphaGrid is the 5-point linear-incentive α grid of Figures 2–3.
func alphaGrid(preset string) []float64 { return eval.AlphaGrid(preset, incentive.Linear, 5) }

// solveOptions is the TI-CSRM configuration every solve op uses.
func solveOptions(seed uint64, share bool) core.Options {
	return core.Options{Mode: core.ModeCostSensitive, Epsilon: epsilon, Seed: seed, ShareSamples: share}
}

// phaseHook turns Progress events into child spans of one solve: Solve
// entry to the first event is init, an interval ending in a sample-growth
// event is growth, one ending in a seed-assigned event is select.
type phaseHook struct {
	tr     *tracer
	parent int
	op     int
	last   time.Time
	first  bool
}

func (h *phaseHook) event(ev core.ProgressEvent) {
	now := time.Now()
	name := "core.select"
	switch {
	case h.first:
		name = "core.init"
		h.first = false
	case ev.Kind == core.ProgressSampleGrowth:
		name = "core.growth"
	}
	h.tr.add(name, h.parent, h.op, h.last, now)
	h.last = now
}

// solve runs one Engine.Solve; with a tracer it installs the phase hook
// and records the solve span under parent.
func solve(tr *tracer, parent, op int, eng *core.Engine, p *core.Problem, opt core.Options) (*core.Allocation, *core.Stats, error) {
	if tr == nil {
		return eng.Solve(context.Background(), p, opt)
	}
	id := tr.reserve()
	start := time.Now()
	h := &phaseHook{tr: tr, parent: id, op: op, last: start, first: true}
	opt.Progress = h.event
	a, st, err := eng.Solve(context.Background(), p, opt)
	tr.finish(id, "core.solve", parent, op, start, time.Now())
	return a, st, err
}

// tight is the relative float-rounding tolerance of the exact checks.
const tight = 1e-9

// checkPayment checks one ad's reported payment against the problem. The
// seed cost c_i(S_i) holds no estimate, so it must equal the cost
// recomputed here from the problem's incentive table and must stay within
// the budget; the payment must be the revenue plus the seed cost. The
// RR-estimated revenue part may push the payment past the budget: the
// engine admits a seed only while the payment fits, but later sample
// growth revises the estimates, and the engine itself refuses any payment
// beyond budget·(1+ε)+ε (core.Allocation.ValidateSlack). Re-checking that
// bound here could not fail, so the overshoot past the budget, as a share
// of it, is returned for the traced run to report and fails no check.
func checkPayment(p *core.Problem, ad int, seeds []int32, revenue, seedCost, payment float64) (float64, error) {
	budget := p.Ads[ad].Budget
	if cost := p.Incentives[ad].TotalCost(seeds); !near(seedCost, cost) {
		return 0, fmt.Errorf("ad %d: seed cost %v, but its %d seeds cost %v", ad, seedCost, len(seeds), cost)
	}
	if seedCost > budget*(1+tight) {
		return 0, fmt.Errorf("ad %d: seed cost %v alone exceeds the budget %v", ad, seedCost, budget)
	}
	if revenue < 0 || !near(payment, revenue+seedCost) {
		return 0, fmt.Errorf("ad %d: payment %v is not revenue %v plus seed cost %v", ad, payment, revenue, seedCost)
	}
	return max(0, payment/budget-1), nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= tight*max(1, math.Abs(b)) }

// checkAllocation checks every ad's payment (checkPayment) and compares
// the allocation with the reference one (the Workers=1 determinism
// contract: same seed, same allocation, bit for bit). It returns the
// largest budget overshoot.
func checkAllocation(p *core.Problem, got, want *core.Allocation) (float64, error) {
	worst := 0.0
	for i := range p.Ads {
		over, err := checkPayment(p, i, got.Seeds[i], got.Revenue[i], got.SeedCost[i], got.Payment[i])
		if err != nil {
			return 0, err
		}
		worst = max(worst, over)
	}
	if want == nil {
		return worst, nil
	}
	for i := range want.Seeds {
		if !equalInts(got.Seeds[i], want.Seeds[i]) || got.Payment[i] != want.Payment[i] ||
			got.Revenue[i] != want.Revenue[i] || got.SeedCost[i] != want.SeedCost[i] {
			return 0, fmt.Errorf("ad %d: allocation differs from the warm-up solve's", i)
		}
	}
	return worst, nil
}

func equalInts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evalTally sums the Engine.Evaluate calls of a run.
type evalTally struct {
	calls, cascades int
	busy            time.Duration
}

// evaluate scores an allocation with Engine.Evaluate at the fixed
// evaluation seed and records the call as a core.evaluate span.
func (t *evalTally) evaluate(tr *tracer, eng *core.Engine, p *core.Problem, a *core.Allocation, runs, workers int) (float64, error) {
	start := time.Now()
	ev, err := eng.Evaluate(context.Background(), p, a, runs, workers, evalSeed)
	end := time.Now()
	if err != nil {
		return 0, err
	}
	tr.add("core.evaluate", 0, -1, start, end)
	t.calls++
	t.cascades += runs * p.NumAds()
	t.busy += end.Sub(start)
	return ev.TotalRevenue(), nil
}

func (t evalTally) report(r *run) {
	if t.calls == 0 {
		return
	}
	r.metrics["core.evaluate_ms"] = ms(t.busy) / float64(t.calls)
	r.metrics["core.cascades_per_s"] = float64(t.cascades) / t.busy.Seconds()
}

// Sizes of the layer probes of a traced run.
const (
	probeOpens = 3
	probeSets  = 100_000
)

// probeLayers times the dataset and rrset entry points on the instances'
// snapshots and graphs: dataset.OpenFile, and Pool.NewStream(...).SampleN
// and KptEstimateParallel at Workers=1, with ad 0's edge probabilities.
func probeLayers(r *run, ins []instance, wbs []*eval.Workbench) error {
	var sets, nodes, width int64
	var sampleTime, kptTime time.Duration
	for k, in := range ins {
		var opens []float64
		for i := 0; i < probeOpens; i++ {
			start := time.Now()
			src, err := dataset.OpenFile(in.path)
			end := time.Now()
			if err != nil {
				return err
			}
			r.tr.add("dataset.open", 0, -1, start, end)
			opens = append(opens, ms(end.Sub(start)))
			if src.Snap != nil {
				src.Snap.Close()
			}
		}
		r.metrics["dataset.open_ms"] += median(opens)

		w := wbs[k]
		g, model := w.Engine().Current()
		probs := model.EdgeProbs(w.Ads[0].Gamma)
		pool := rrset.NewPool(g, rrset.PoolOptions{Workers: 1})
		stream := pool.NewStream(probs, r.seed)
		start := time.Now()
		stream.SampleN(probeSets, func(ns []int32, wd int64) {
			nodes += int64(len(ns))
			width += wd
		})
		end := time.Now()
		r.tr.add("rrset.sample", 0, -1, start, end)
		sets += probeSets
		sampleTime += end.Sub(start)

		start = time.Now()
		rrset.KptEstimateParallel(pool.NewStream(probs, r.seed+1), g.NumEdges(), int64(g.NumNodes()), 1, 1)
		end = time.Now()
		r.tr.add("rrset.kpt", 0, -1, start, end)
		kptTime += end.Sub(start)
	}
	secs := sampleTime.Seconds()
	r.metrics["rrset.sets_per_s"] = float64(sets) / secs
	r.metrics["rrset.nodes_per_s"] = float64(nodes) / secs
	r.metrics["rrset.width_per_s"] = float64(width) / secs
	r.metrics["rrset.kpt_ms"] = ms(kptTime)
	return nil
}

// opStats holds the exact per-op counts of a solve workload, summed over
// the op's solves; every op does the same work, so any op's counts do.
type opStats struct {
	rrSets, growth, seeds   int64
	rrMemory, samplerMemory int64
}

func (o *opStats) add(st *core.Stats) {
	o.rrSets += st.TotalRRSets
	o.growth += int64(st.GrowthEvents)
	for _, c := range st.SeedCounts {
		o.seeds += int64(c)
	}
	o.rrMemory = max(o.rrMemory, st.RRMemoryBytes)
	o.samplerMemory = max(o.samplerMemory, st.SamplerMemoryBytes)
}

func (o opStats) report(r *run) {
	r.metrics["core.rr_sets"] = float64(o.rrSets)
	r.metrics["core.growth_events"] = float64(o.growth)
	r.metrics["core.seeds"] = float64(o.seeds)
	r.metrics["core.rr_memory_mb"] = float64(o.rrMemory) / (1 << 20)
	r.metrics["core.sampler_memory_mb"] = float64(o.samplerMemory) / (1 << 20)
}

// spanTotals sums the durations of spans by name over the timed ops
// listed in ops.
func spanTotals(spans []span, ops map[int]bool) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if ops[s.Op] {
			out[s.Name] += s.dur()
		}
	}
	return out
}
