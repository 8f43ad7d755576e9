package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/incentive"
)

const (
	// serveRate is the open loop's mean arrival rate (requests/s). At
	// this rate rmserved uses about a quarter of one core, so p50 is the
	// cache-hit path and the slowest requests are re-solves after a
	// mutate, not a growing backlog; every request fits the admission
	// limits. A run of 25 s sends 10 mutates: the re-solve work differs
	// from one mutate to the next, and at 10 requests/s (5 mutates) the
	// CPU time per request moved by 16–18% between workload seeds, at 20
	// by about 8%.
	serveRate = 20
	// serveConns is the number of keep-alive connections.
	serveConns = 2
	// Evaluate requests: no cache, one worker.
	serveEvalRuns    = 1000
	serveEvalWorkers = 1
)

// serveMixed drives an rmserved subprocess serving the WC snapshot with a
// durable WAL (fsync before every ack) through an open loop of seeded
// Poisson arrivals: 88% solves over the 5 α keys, 10% evaluates, 2%
// mutates. Every mutate bumps the generation, so the next solve of each
// key misses the result cache and re-solves on the repaired universe.
func serveMixed(r *run) error {
	if r.rmserved == "" {
		return fmt.Errorf("serve-mixed needs -rmserved")
	}
	in, err := prepare(r.dir, "epinions")
	if err != nil {
		return err
	}
	// The in-process workbench is the same instance rmserved builds: it
	// supplies the problems the checks compare payments with, the arcs the
	// mutation list draws from, and the layer probes of a traced run.
	t0 := time.Now()
	wb, err := in.workbench(r.tr)
	if err != nil {
		return err
	}
	r.metrics["eval.workbench_ms"] = ms(time.Since(t0))
	alphas := alphaGrid(in.preset)
	problems := make([]*core.Problem, len(alphas))
	for k, a := range alphas {
		problems[k] = wb.Problem(incentive.Linear, a)
	}
	// The generated graphs hold each arc once and no self-loops, so every
	// arc can be removed and re-added on its own.
	g, _ := wb.Engine().Current()
	var arcs []arc
	g.Edges(func(u, v int32, _ int64) bool {
		arcs = append(arcs, arc{u, v})
		return true
	})
	sched := makeSchedule(r.seed, int(serveRate*r.seconds.Seconds()), r.seconds, len(alphas))
	lg := &loadgen{
		r:        r,
		dataset:  in.path,
		alphas:   alphas,
		problems: problems,
		muts:     makeMutations(r.seed, arcs, countMutates(sched)),
		seed:     newRNG(r.seed, 3).Uint64(),
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}},
	}

	walDir := filepath.Join(r.dir, "wal")
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setupTimes []float64
	for s := 0; s < setups; s++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			srv = nil
			if err := os.RemoveAll(walDir); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		srv, err = startServer(r.rmserved, in.path, walDir)
		if err != nil {
			return err
		}
		lg.base = srv.base
		if err := lg.warmUp(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	r.metrics["setup_s"] = median(setupTimes)

	runtime.GC()
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	if err := resetPeakRSS(pid); err != nil {
		return err
	}
	before, err := lg.scrape()
	if err != nil {
		return err
	}
	alloc0, gc0 := runtimeCounters()
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	results, elapsed := lg.run(sched)
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	alloc1, gc1 := runtimeCounters()
	after, err := lg.scrape()
	if err != nil {
		return err
	}

	var all, lates, hit, miss, evals, mutates []float64
	ok := 0
	for _, res := range results {
		r.attempted++
		if !res.ok {
			r.failed++
		} else {
			ok++
		}
		all = append(all, res.ms)
		lates = append(lates, res.lateMS)
		switch {
		case res.kind == kindSolve && res.cache == "hit":
			hit = append(hit, res.ms)
		case res.kind == kindSolve:
			miss = append(miss, res.ms)
		case res.kind == kindEvaluate:
			evals = append(evals, res.ms)
		default:
			mutates = append(mutates, res.ms)
		}
	}
	r.metrics["p50_ms"] = median(all)
	r.metrics["cpu_ms_per_op"] = 1000 * (cpu1 - cpu0) / float64(len(results))
	if r.metrics["serve.p95_ms"], err = percentile(all, 0.95); err != nil {
		return fmt.Errorf("p95: %w", err)
	}
	r.metrics["ops_per_s"] = float64(ok) / elapsed.Seconds()
	r.metrics["ok_share"] = float64(ok) / float64(len(results))
	if r.metrics["loadgen.late_p95_ms"], err = percentile(lates, 0.95); err != nil {
		return fmt.Errorf("late: %w", err)
	}
	r.metrics["serve.hit_p50_ms"] = median(hit)
	r.metrics["serve.miss_p50_ms"] = median(miss)
	r.metrics["serve.evaluate_p50_ms"] = median(evals)
	r.metrics["serve.mutate_p50_ms"] = median(mutates)
	r.metrics["serve.rejected"] = float64(lg.rejected)
	// Tracing here only appends client-side spans; nothing is traced
	// inside rmserved, so there is no tracing overhead to measure.
	r.metrics["trace.overhead_ms"] = 0
	ops := float64(len(results))
	r.metrics["runtime.alloc_mb_per_op"] = float64(alloc1-alloc0) / (1 << 20) / ops
	r.metrics["runtime.gc_cycles_per_op"] = float64(gc1-gc0) / ops

	d := func(name string) float64 { return delta(before, after, name) }
	if n := d("rmserved_cache_hits_total") + d("rmserved_cache_misses_total"); n > 0 {
		r.metrics["serve.cache_hit_ratio"] = d("rmserved_cache_hits_total") / n
	}
	if n := d("rmserved_engine_universe_cache_hits_total") + d("rmserved_engine_universe_cache_misses_total"); n > 0 {
		r.metrics["core.universe_hit_ratio"] = d("rmserved_engine_universe_cache_hits_total") / n
	}
	if n := d("rmserved_engine_mutations_total"); n > 0 {
		r.metrics["core.invalidated_sets_per_mutate"] = d("rmserved_rrsets_invalidated_total") / n
		r.metrics["core.repaired_sets_per_mutate"] = d("rmserved_rrsets_repaired_total") / n
	}
	if n := d("rmserved_wal_appends_total"); n > 0 {
		r.metrics["wal.fsync_ms_per_append"] = 1000 * d("rmserved_wal_fsync_seconds") / n
		r.metrics["wal.bytes_per_append"] = d("rmserved_wal_size_bytes") / n
	}

	// Revenue of the allocations rmserved planned for each α key on the
	// snapshot graph (the warm-up solves), evaluated in process on the same
	// instance: the graph mutations the timed phase draws would otherwise
	// move revenue by several percent between seeds.
	revenue := 0.0
	var revEvals evalTally
	for k, p := range problems {
		alloc := core.NewAllocation(adCount)
		alloc.Seeds = lg.warmSeeds[k]
		v, err := revEvals.evaluate(nil, wb.Engine(), p, alloc, evalRuns, evalWorkers)
		if err != nil {
			return fmt.Errorf("evaluate: %w", err)
		}
		revenue += v
	}
	r.metrics["revenue"] = revenue
	if r.metrics["peak_rss_mb"], err = peakRSSMB(pid); err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	srv = nil

	if r.traced() {
		// The in-process Evaluate at the evaluate requests' settings is
		// the core work behind serve.evaluate_p50_ms.
		a := core.NewAllocation(adCount)
		a.Seeds = lg.warmSeeds[0]
		var evals evalTally
		if _, err := evals.evaluate(r.tr, wb.Engine(), problems[0], a, serveEvalRuns, serveEvalWorkers); err != nil {
			return err
		}
		evals.report(r)
		if err := probeLayers(r, []instance{in}, []*eval.Workbench{wb}); err != nil {
			return err
		}
	}
	return nil
}

// server is a running rmserved subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer execs rmserved on the snapshot with a WAL directory and
// fsync-always (its default), everything else at the default config, and
// returns once it announces its listen address.
func startServer(bin, snap, walDir string) (*server, error) {
	cmd := exec.Command(bin, "-addr=127.0.0.1:0", "-snapshot="+snap, "-wal="+walDir)
	cmd.Stderr = os.Stderr
	// If the benchmark dies, the kernel stops rmserved too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rmserved: listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		s.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if ok {
			s.base = "http://" + a
			return s, nil
		}
	case <-time.After(time.Minute):
	}
	s.stop()
	return nil, fmt.Errorf("rmserved did not announce a listen address")
}

// stop sends SIGTERM (graceful drain) and waits for the process to exit,
// killing it if it has not within 30 s.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("rmserved exited: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("rmserved did not drain within 30s")
	}
}

// loadgen sends serve-mixed requests and checks every answer. All check
// state is owned by one goroutine: the dispatcher during the timed phase,
// the caller otherwise.
type loadgen struct {
	r        *run
	base     string
	dataset  string
	alphas   []float64
	problems []*core.Problem // per α key: the instance's problem, for the payment checks
	muts     []mutation
	seed     uint64 // solver seed of every solve; one seed, so all α keys share one universe
	client   *http.Client

	warmSeeds [][][]int32          // per α key: the warm-up solve's seeds
	gen       uint64               // generation after the last mutate
	bodies    map[[2]uint64][]byte // cache-miss solve bodies by (α key, generation)
	rejected  int
}

// reply is one HTTP answer.
type reply struct {
	code  int
	cache string
	body  []byte
	err   error
}

type result struct {
	kind   reqKind
	ok     bool
	cache  string
	ms     float64
	lateMS float64
	seeds  [][]int32
}

type solveReply struct {
	Generation uint64    `json:"generation"`
	Seeds      [][]int32 `json:"seeds"`
	Revenue    []float64 `json:"revenue"`
	SeedCost   []float64 `json:"seed_cost"`
	Payment    []float64 `json:"payment"`
}

type evaluateReply struct {
	Generation   uint64    `json:"generation"`
	Revenue      []float64 `json:"revenue"`
	TotalRevenue float64   `json:"total_revenue"`
}

type mutateReply struct {
	Generation uint64 `json:"generation"`
}

func (lg *loadgen) post(path string, body any) reply {
	b, err := json.Marshal(body)
	if err != nil {
		return reply{err: err}
	}
	resp, err := lg.client.Post(lg.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, cache: resp.Header.Get("X-RM-Cache"), body: out, err: err}
}

func (lg *loadgen) scrape() (map[string]float64, error) {
	resp, err := lg.client.Get(lg.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// send issues req and returns the raw answer; it touches no check state,
// so the timed phase runs it on its own goroutine.
func (lg *loadgen) send(req request) reply {
	switch req.Kind {
	case kindSolve:
		return lg.post("/v1/solve", map[string]any{
			"dataset": lg.dataset, "h": adCount, "alpha": lg.alphas[req.Alpha], "epsilon": epsilon,
			"seed": lg.seed, "share_samples": true,
		})
	case kindEvaluate:
		return lg.postEvaluate(req.Alpha, lg.warmSeeds[req.Alpha], serveEvalRuns, serveEvalWorkers)
	}
	body := map[string]any{"dataset": lg.dataset, "h": adCount}
	if req.Mutation >= 0 {
		m := lg.muts[req.Mutation]
		edges := []map[string]int32{{"u": m.Arc.U, "v": m.Arc.V}}
		if m.Add {
			body["add_edges"] = edges
		} else {
			body["remove_edges"] = edges
		}
	}
	return lg.post("/v1/mutate", body)
}

func (lg *loadgen) postEvaluate(k int, seeds [][]int32, runs, workers int) reply {
	return lg.post("/v1/evaluate", map[string]any{
		"dataset": lg.dataset, "h": adCount, "alpha": lg.alphas[k], "seeds": seeds,
		"runs": runs, "workers": workers, "seed": evalSeed, "no_cache": true,
	})
}

// do sends req and checks the answer, synchronously.
func (lg *loadgen) do(req request) (result, error) {
	res, err := lg.check(req, lg.send(req))
	if err != nil {
		lg.r.fail("%s: %v", req.Kind, err)
	}
	return res, err
}

// check checks one answer and advances the tracked generation on a
// mutate. Every answer must be a 200 at the current generation; a solve's
// payments must pass checkPayment, and a cache hit must repeat the bytes
// of the miss that stored it; an evaluate's totals must add up; a
// mutate must raise the generation by exactly 1.
func (lg *loadgen) check(req request, rep reply) (result, error) {
	res := result{kind: req.Kind, cache: rep.cache}
	if rep.err != nil {
		return res, rep.err
	}
	if rep.code != http.StatusOK {
		if rep.code == http.StatusTooManyRequests || rep.code == http.StatusServiceUnavailable {
			lg.rejected++
		}
		return res, fmt.Errorf("status %d: %s", rep.code, bytes.TrimSpace(rep.body))
	}
	var err error
	switch req.Kind {
	case kindSolve:
		res.seeds, err = lg.checkSolve(req.Alpha, rep)
	case kindEvaluate:
		_, err = lg.checkEvaluate(rep)
	default:
		var m mutateReply
		if err = json.Unmarshal(rep.body, &m); err == nil && m.Generation != lg.gen+1 {
			err = fmt.Errorf("generation %d after %d", m.Generation, lg.gen)
		}
		if err == nil {
			lg.gen = m.Generation
		}
	}
	res.ok = err == nil
	return res, err
}

func (lg *loadgen) checkSolve(k int, rep reply) ([][]int32, error) {
	var s solveReply
	if err := json.Unmarshal(rep.body, &s); err != nil {
		return nil, err
	}
	if s.Generation != lg.gen {
		return nil, fmt.Errorf("answered at generation %d, want %d", s.Generation, lg.gen)
	}
	if len(s.Seeds) != adCount || len(s.Revenue) != adCount || len(s.SeedCost) != adCount || len(s.Payment) != adCount {
		return nil, fmt.Errorf("answer does not cover %d ads", adCount)
	}
	for i := range s.Payment {
		over, err := checkPayment(lg.problems[k], i, s.Seeds[i], s.Revenue[i], s.SeedCost[i], s.Payment[i])
		if err != nil {
			return nil, err
		}
		lg.r.metrics["core.budget_overshoot"] = max(lg.r.metrics["core.budget_overshoot"], over)
	}
	key := [2]uint64{uint64(k), s.Generation}
	switch rep.cache {
	case "miss":
		lg.bodies[key] = rep.body
	case "hit":
		stored, ok := lg.bodies[key]
		if !ok {
			return nil, fmt.Errorf("cache hit with no earlier miss at generation %d", s.Generation)
		}
		if !bytes.Equal(stored, rep.body) {
			return nil, fmt.Errorf("cache hit differs from the stored miss at generation %d", s.Generation)
		}
	default:
		return nil, fmt.Errorf("X-RM-Cache header %q", rep.cache)
	}
	return s.Seeds, nil
}

func (lg *loadgen) checkEvaluate(rep reply) (float64, error) {
	var e evaluateReply
	if err := json.Unmarshal(rep.body, &e); err != nil {
		return 0, err
	}
	if e.Generation != lg.gen {
		return 0, fmt.Errorf("evaluate answered at generation %d, want %d", e.Generation, lg.gen)
	}
	sum := 0.0
	for _, v := range e.Revenue {
		sum += v
	}
	if len(e.Revenue) != adCount || e.TotalRevenue <= 0 ||
		math.Abs(sum-e.TotalRevenue) > 1e-9*math.Max(1, sum) {
		return 0, fmt.Errorf("evaluate totals do not add up: %v vs %v", e.Revenue, e.TotalRevenue)
	}
	return e.TotalRevenue, nil
}

// warmUp is set-up's untimed op on a fresh server: an empty mutate (which
// opens the WAL and bumps the generation but leaves the graph as the
// snapshot has it), a solve of every α key (building the engine and
// filling the universe and result caches), and one evaluate.
func (lg *loadgen) warmUp() error {
	lg.gen = 0
	lg.bodies = map[[2]uint64][]byte{}
	lg.warmSeeds = make([][][]int32, len(lg.alphas))
	if _, err := lg.do(request{Kind: kindMutate, Mutation: -1}); err != nil {
		return err
	}
	for k := range lg.alphas {
		res, err := lg.do(request{Kind: kindSolve, Alpha: k})
		if err != nil {
			return err
		}
		lg.warmSeeds[k] = res.seeds
	}
	_, err := lg.do(request{Kind: kindEvaluate})
	return err
}

// done is a finished request of the timed phase.
type done struct {
	i   int
	rep reply
	at  time.Time
}

// run sends the schedule and returns each request's checked result and
// the time from the start to the last answer.
//
// Requests go out when due, over at most serveConns connections, in
// schedule order except that a request held back by the rules below
// does not hold back the ones behind it. A mutate waits until every
// earlier request has finished, and nothing later starts until it has;
// a solve waits for any earlier solve of its α key. So there is one
// writer, mutates never overlap (no 409), and every answer's generation
// and cache outcome are a function of the schedule alone.
func (lg *loadgen) run(sched []request) ([]result, time.Duration) {
	results := make([]result, len(sched))
	finished := make(chan done, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	var lastDone time.Time
	var pending []int // due, not yet sent, in schedule order
	inflight := 0
	mutating := false
	solving := map[int]bool{}
	next, completed := 0, 0

	dispatch := func() {
		blocked := map[int]bool{} // α keys with an earlier solve still pending
		for j := 0; j < len(pending); {
			i := pending[j]
			req := sched[i]
			if inflight >= serveConns || mutating {
				return
			}
			switch {
			case req.Kind == kindMutate:
				if j > 0 || inflight > 0 {
					return
				}
				mutating = true
			case req.Kind == kindSolve && (solving[req.Alpha] || blocked[req.Alpha]):
				blocked[req.Alpha] = true
				j++
				continue
			case req.Kind == kindSolve:
				solving[req.Alpha] = true
			}
			inflight++
			pending = append(pending[:j], pending[j+1:]...)
			tr := lg.r.tr
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				rep := lg.send(req)
				t1 := time.Now()
				tr.add("serve."+req.Kind.String(), 0, i, t0, t1)
				finished <- done{i: i, rep: rep, at: t1}
			}()
		}
	}

	timer := time.NewTimer(0)
	defer timer.Stop()
	for completed < len(sched) {
		if next < len(sched) {
			timer.Reset(time.Until(start.Add(sched[next].At)))
		}
		select {
		case <-timer.C:
			for next < len(sched) && !time.Now().Before(start.Add(sched[next].At)) {
				results[next].lateMS = ms(time.Since(start.Add(sched[next].At)))
				pending = append(pending, next)
				next++
			}
		case d := <-finished:
			req := sched[d.i]
			res, err := lg.check(req, d.rep)
			if err != nil {
				lg.r.fail("request %d (%s): %v", d.i, req.Kind, err)
			}
			res.lateMS = results[d.i].lateMS
			res.ms = ms(d.at.Sub(start.Add(req.At)))
			results[d.i] = res
			inflight--
			switch req.Kind {
			case kindMutate:
				mutating = false
			case kindSolve:
				delete(solving, req.Alpha)
			}
			lastDone = d.at
			completed++
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		dispatch()
	}
	wg.Wait()
	return results, lastDone.Sub(start)
}
