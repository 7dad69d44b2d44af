package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"pareto/internal/bench"
	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/kvstore"
	"pareto/internal/opt"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sampling"
	"pareto/internal/strata"
	"pareto/internal/workloads/treemine"
)

const (
	// batchAlpha is the paper's Het-Energy-Aware weight for mining.
	batchAlpha = 0.999
	// traceOffset starts every job at noon of the solar trace, as the
	// experiment suite does.
	traceOffset = 12 * 3600
	// pipelineWidth is the kvstore pipeline width for placement.
	pipelineWidth = 64
)

// treeSet is one generated tree corpus and its reference results.
type treeSet struct {
	trees []pivots.Tree
	// ref is core.BuildPlan's plan at one worker and refRes/refMine
	// the in-memory run of that plan: every job on these trees must
	// reproduce them.
	ref     *core.Plan
	refRes  *cluster.Result
	refMine map[string]float64
}

// batchEnv is the set-up state of batch-tree. Jobs cycle through
// several tree sets: how many rounds k-modes needs to converge varies
// from one generated corpus to the next (11 to 26 at 50k trees), and a
// run that plans on several corpora reads much the same whatever its
// seed.
type batchEnv struct {
	size    sizes
	sets    []*treeSet
	cl      *cluster.Cluster
	srv     *kvstore.Server
	clients []*kvstore.Client
	cfg     core.Config
}

func (e *batchEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// setupBatch generates the tree sets and starts the store; it is the
// part of batch-tree's set-up that setup_s times.
func setupBatch(size sizes, seed int64) (*batchEnv, error) {
	var sets []*treeSet
	for i := 0; i < size.treeSets; i++ {
		tc := datasets.TreebankLike(1)
		tc.NumTrees = size.trees
		tc.Seed = seed*int64(size.treeSets) + int64(i)
		trees, _, err := datasets.GenerateTrees(tc)
		if err != nil {
			return nil, err
		}
		sets = append(sets, &treeSet{trees: trees})
	}
	cl, err := cluster.PaperCluster(size.clusterNodes, energy.DefaultPanel(), 172, 48)
	if err != nil {
		return nil, err
	}
	srv, clients, err := startStore()
	if err != nil {
		return nil, err
	}
	return &batchEnv{
		size: size, sets: sets, cl: cl, srv: srv, clients: clients,
		cfg: core.Config{
			Strategy:         core.HetEnergyAware,
			Alpha:            batchAlpha,
			Scheme:           partitioner.Representative,
			SampleSeed:       seed,
			TraceOffset:      traceOffset,
			MinPartitionFrac: 0.25,
			Workers:          maxWorkers,
		},
	}, nil
}

func (e *batchEnv) workload(corpus *pivots.TreeCorpus) *bench.TreeMining {
	return &bench.TreeMining{Trees: corpus, SupportFrac: e.size.treeSupport, MaxNodes: e.size.treeMaxNodes}
}

func (e *batchEnv) config(w *bench.TreeMining, workers int) core.Config {
	cfg := e.cfg
	cfg.MinPartitionRecords = w.MinPartitionRecords()
	cfg.Workers = workers
	return cfg
}

// buildReferences plans every tree set at one worker with
// core.BuildPlan and runs the plan in memory through the experiment
// harness: the oracle every job is checked against.
func (e *batchEnv) buildReferences() error {
	for _, ts := range e.sets {
		corpus, err := pivots.NewTreeCorpusParallel(ts.trees, 1)
		if err != nil {
			return err
		}
		w := e.workload(corpus)
		ts.ref, err = core.BuildPlan(corpus, e.cl, w.Profile, e.config(w, 1))
		if err != nil {
			return fmt.Errorf("reference plan: %w", err)
		}
		ts.refRes, ts.refMine, err = w.Run(e.cl, ts.ref.Assign, traceOffset)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		if ts.refMine["candidates"] <= ts.refMine["frequent"] {
			return fmt.Errorf("support %v leaves phase 2 no false candidates to count (%v candidates)",
				e.size.treeSupport, ts.refMine["candidates"])
		}
	}
	return nil
}

// jobResult is one batch job's measurements and checks.
type jobResult struct {
	jobDur, planDur time.Duration
	placedBytes     int
	allocs          uint64
	strat           strata.StratifyStats
	profileSamples  int
	nodeWallMax     float64
	// problem is the first failed correctness check, nil if none.
	problem error
}

// job runs the paper's batch pipeline once: corpus build, plan, place
// into the kvstore, read every partition back, execute the mining job.
// With a tracer it plans through the decomposed layer calls instead of
// core.BuildPlan and records a span per layer.
func (e *batchEnv) job(tr *tracer, ts *treeSet, key string) (*jobResult, error) {
	jr := &jobResult{}
	root := tr.open("job", -1)
	t0 := time.Now()

	ps := tr.open("plan", root)
	var ms runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms)
	}
	before := ms.Mallocs
	sp := tr.open("pivots.build", ps)
	corpus, err := pivots.NewTreeCorpusParallel(ts.trees, maxWorkers)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		runtime.ReadMemStats(&ms)
		jr.allocs = ms.Mallocs - before
	}
	w := e.workload(corpus)
	cfg := e.config(w, maxWorkers)
	var plan *core.Plan
	if tr == nil {
		plan, err = core.BuildPlan(corpus, e.cl, w.Profile, cfg)
	} else {
		plan, jr.profileSamples, err = decomposedPlan(tr, ps, corpus, e.cl, w.Profile, cfg)
	}
	tr.close(ps)
	if err != nil {
		return nil, fmt.Errorf("planning: %w", err)
	}
	jr.planDur = time.Since(t0)
	jr.strat = plan.Strat.Stats

	store, err := partitioner.NewKVStore(e.clients, pipelineWidth, key)
	if err != nil {
		return nil, err
	}
	sp = tr.open("partitioner.place", root)
	err = partitioner.PlaceParallel(corpus, plan.Assign, store, maxWorkers)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("kvstore.read", root)
	raw, err := readPartitions(store, plan.Assign.P())
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("cluster.exec", root)
	res, mine, err := e.execute(plan, raw)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	jr.jobDur = time.Since(t0)
	tr.close(root)

	for _, wall := range res.NodeWallSec {
		jr.nodeWallMax = max(jr.nodeWallMax, wall)
	}
	for _, part := range raw {
		for _, r := range part {
			jr.placedBytes += len(r)
		}
	}
	jr.problem = e.check(ts, corpus, plan, raw, res, mine)
	return jr, nil
}

// readPartitions reads every partition back, one goroutine per kvstore
// connection (partition j lives behind connection j mod connections).
func readPartitions(store *partitioner.KVStore, p int) ([][][]byte, error) {
	raw := make([][][]byte, p)
	errs := make([]error, maxWorkers)
	var wg sync.WaitGroup
	for g := 0; g < maxWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < p; j += maxWorkers {
				recs, err := store.ReadPartition(j)
				if err != nil {
					errs[g] = err
					return
				}
				raw[j] = recs
			}
		}(g)
	}
	wg.Wait()
	return raw, errors.Join(errs...)
}

// execute decodes the read-back partitions and runs the two-phase
// Savasere tree-mining job through core.Execute: local mining on every
// node, the candidate-union barrier, then global support counting.
// It mirrors bench.TreeMining.Run, whose in-memory result is the
// reference.
func (e *batchEnv) execute(plan *core.Plan, raw [][][]byte) (*cluster.Result, map[string]float64, error) {
	p := len(raw)
	parts := make([][]pivots.Tree, p)
	total := 0
	for j, recs := range raw {
		parts[j] = make([]pivots.Tree, len(recs))
		for k, r := range recs {
			t, rest, err := pivots.DecodeTreeRecord(r)
			if err != nil || len(rest) != 0 {
				return nil, nil, fmt.Errorf("decoding partition %d record %d: %v", j, k, err)
			}
			parts[j][k] = t
		}
		total += len(recs)
	}
	mcfg := treemine.Config{MaxNodes: e.size.treeMaxNodes}
	locals := make([]*treemine.PartitionResult, p)
	res1, err := core.Execute(e.cl, plan, func(j int, _ []int) (float64, error) {
		pr, err := treemine.MineLocal(parts[j], e.size.treeSupport, mcfg)
		if err != nil {
			return 0, err
		}
		locals[j] = pr
		return pr.Cost, nil
	}, traceOffset)
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{}
	var cands []treemine.Pattern
	for _, l := range locals {
		if l == nil {
			continue
		}
		for _, fp := range l.Local {
			if k := fp.Pattern.Key(); !seen[k] {
				seen[k] = true
				cands = append(cands, fp.Pattern)
			}
		}
	}
	counts := make([][]int, p)
	res2, err := core.Execute(e.cl, plan, func(j int, _ []int) (float64, error) {
		f, err := treemine.NewForest(parts[j])
		if err != nil {
			return 0, err
		}
		c := make([]int, len(cands))
		var cost float64
		for ci, pat := range cands {
			sup, w, err := treemine.CountSupport(f, pat)
			if err != nil {
				return 0, err
			}
			c[ci] = sup
			cost += w
		}
		counts[j] = c
		return cost, nil
	}, traceOffset+res1.Makespan)
	if err != nil {
		return nil, nil, err
	}
	frequent := 0
	for ci := range cands {
		sum := 0
		for j := range counts {
			if counts[j] != nil {
				sum += counts[j][ci]
			}
		}
		if float64(sum) >= e.size.treeSupport*float64(total) {
			frequent++
		}
	}
	res := &cluster.Result{
		Makespan:    res1.Makespan + res2.Makespan,
		DirtyEnergy: res1.DirtyEnergy + res2.DirtyEnergy,
		NodeWallSec: make([]float64, p),
	}
	for j := range res.NodeWallSec {
		res.NodeWallSec[j] = res1.NodeWallSec[j] + res2.NodeWallSec[j]
	}
	mine := map[string]float64{
		"candidates":      float64(len(cands)),
		"frequent":        float64(frequent),
		"false-positives": float64(len(cands) - frequent),
	}
	return res, mine, nil
}

// check runs batch-tree's correctness checks on one job.
func (e *batchEnv) check(ts *treeSet, corpus *pivots.TreeCorpus, plan *core.Plan, raw [][][]byte, res *cluster.Result, mine map[string]float64) error {
	if err := plan.Assign.Validate(corpus.Len()); err != nil {
		return fmt.Errorf("assignment: %w", err)
	}
	if err := samePlan(plan, ts.ref); err != nil {
		return fmt.Errorf("plan at %d workers differs from the 1-worker reference: %w", maxWorkers, err)
	}
	var buf []byte
	for j, idx := range plan.Assign.Parts {
		if len(raw[j]) != len(idx) {
			return fmt.Errorf("partition %d read back %d records, placed %d", j, len(raw[j]), len(idx))
		}
		for k, i := range idx {
			buf = corpus.AppendRecord(buf[:0], i)
			if !bytes.Equal(raw[j][k], buf) {
				return fmt.Errorf("partition %d record %d differs from corpus record %d", j, k, i)
			}
		}
	}
	if !reflect.DeepEqual(mine, ts.refMine) {
		return fmt.Errorf("mining result %v, reference %v", mine, ts.refMine)
	}
	if res.Makespan != ts.refRes.Makespan || res.DirtyEnergy != ts.refRes.DirtyEnergy {
		return fmt.Errorf("realised makespan %v s / dirty %v J, reference %v s / %v J",
			res.Makespan, res.DirtyEnergy, ts.refRes.Makespan, ts.refRes.DirtyEnergy)
	}
	return nil
}

// samePlan compares every output field of two plans; stage timings
// and stratifier statistics are measurements, not outputs.
func samePlan(a, b *core.Plan) error {
	fields := []struct {
		name string
		x, y any
	}{
		{"strategy", a.Strategy, b.Strategy},
		{"alpha", a.Alpha, b.Alpha},
		{"scheme", a.Scheme, b.Scheme},
		{"corpus weight", a.CorpusWeight, b.CorpusWeight},
		{"sketches", a.Strat.Sketches, b.Strat.Sketches},
		{"strata", a.Strat.Assign, b.Strat.Assign},
		{"members", a.Strat.Members, b.Strat.Members},
		{"centers", a.Strat.Centers, b.Strat.Centers},
		{"stratum weights", a.Strat.WeightTotals, b.Strat.WeightTotals},
		{"clustering cost", a.Strat.Cost, b.Strat.Cost},
		{"models", a.Models, b.Models},
		{"sizes", a.Sizes, b.Sizes},
		{"sizing", a.Optimized, b.Optimized},
		{"placement", a.Assign.Parts, b.Assign.Parts},
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.x, f.y) {
			return fmt.Errorf("%s differ", f.name)
		}
	}
	return nil
}

// decomposedPlan makes the plan core.BuildPlan makes, by calling its
// layers in BuildPlan's order with the same defaults, and records one
// span per layer call under parent. It returns the plan and the number
// of profiled samples.
func decomposedPlan(tr *tracer, parent int, corpus pivots.Corpus, cl *cluster.Cluster, profile core.ProfileFunc, cfg core.Config) (*core.Plan, int, error) {
	n, p := corpus.Len(), cl.P()
	sc := cfg.Stratifier
	if sc.Cluster.K == 0 {
		sc.Cluster.K = min(4*p, n)
	}
	if sc.Cluster.L == 0 {
		sc.Cluster.L = 3
	}
	if sc.Cluster.Workers == 0 {
		sc.Cluster.Workers = cfg.Workers
	}
	plan := &core.Plan{Strategy: cfg.Strategy, Alpha: cfg.Alpha, Scheme: cfg.Scheme}
	for i := 0; i < n; i++ {
		plan.CorpusWeight += corpus.Weight(i)
	}

	sp := tr.open("strata.stratify", parent)
	st, err := strata.Stratify(corpus, sc)
	tr.close(sp)
	if err != nil {
		return nil, 0, err
	}
	tr.add("strata.sketch", sp, st.Stats.SketchTime)
	tr.add("strata.cluster", sp, st.Stats.ClusterTime)
	var assign time.Duration
	for _, it := range st.Stats.Iters {
		assign += it.Assign
	}
	tr.add("strata.assign", sp, assign)
	plan.Strat = st

	sp = tr.open("profile", parent)
	sizes, err := sampling.ScheduleWithFloor(n, sampling.DefaultMinFrac, sampling.DefaultMaxFrac, sampling.DefaultSteps, cfg.ProfileMinRecords)
	if err != nil {
		return nil, 0, err
	}
	rates := cl.DirtyRates(cfg.TraceOffset, 3600)
	cost := make(map[int]float64, len(sizes))
	for _, s := range sizes {
		ss := tr.open("sampling.sample", sp)
		idx, err := strata.StratifiedSample(st.Members, s, cfg.SampleSeed+int64(s))
		tr.close(ss)
		if err != nil {
			return nil, 0, err
		}
		ws := tr.open("workloads.profile", sp)
		c, err := profile(idx)
		tr.close(ws)
		if err != nil {
			return nil, 0, err
		}
		cost[s] = c
	}
	fs := tr.open("cluster.fit", sp)
	plan.Models, err = cl.ProfileAllWithRates(sizes, func(s int) (float64, error) { return cost[s], nil }, rates)
	tr.close(fs)
	tr.close(sp)
	if err != nil {
		return nil, 0, err
	}

	cons := opt.Constraints{}
	if cfg.MinPartitionFrac > 0 {
		cons.MinSize = cfg.MinPartitionFrac * float64(n) / float64(p)
	}
	cons.MinSize = max(cons.MinSize, cfg.MinPartitionRecords)
	sp = tr.open("opt.solve", parent)
	plan.Optimized, err = opt.OptimizeWithConstraints(plan.Models, n, cfg.Alpha, cons)
	tr.close(sp)
	if err != nil {
		return nil, 0, err
	}
	plan.Sizes = plan.Optimized.Sizes

	sp = tr.open("partitioner.partition", parent)
	plan.Assign, err = partitioner.Partition(cfg.Scheme, st.Members, plan.Sizes)
	tr.close(sp)
	if err != nil {
		return nil, 0, err
	}
	return plan, len(sizes), nil
}

// runBatchTree is the batch-tree workload: closed loop, one job at a
// time, for the measured window.
func runBatchTree(rc runConfig) (*workloadRun, error) {
	env, setupS, err := setupRepeated(rc.size.setups, func() (*batchEnv, error) { return setupBatch(rc.size, rc.seed) }, (*batchEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.buildReferences(); err != nil {
		return nil, err
	}
	out := &workloadRun{values: map[string]float64{}}
	var tr *tracer
	window := rc.seconds
	if rc.trace {
		tr = newTracer()
		window /= 2
	}
	// A traced run first measures untraced jobs for the overhead
	// estimate, then the traced jobs that give the split.
	loop := func(t *tracer, until deadline) ([]*jobResult, time.Duration, error) {
		var jobs []*jobResult
		start := time.Now()
		for len(jobs) == 0 || !until.passed() {
			jr, err := env.job(t, env.sets[len(jobs)%len(env.sets)], fmt.Sprintf("job%d", len(jobs)%2))
			if err != nil {
				return nil, 0, err
			}
			jobs = append(jobs, jr)
		}
		return jobs, time.Since(start), nil
	}
	untraced, loopDur, err := loop(nil, after(window))
	if err != nil {
		return nil, err
	}
	jobs := untraced
	if rc.trace {
		if jobs, loopDur, err = loop(tr, after(window)); err != nil {
			return nil, err
		}
	}
	for _, jr := range jobs {
		out.attempted++
		if jr.problem != nil {
			out.failed++
			out.notes = append(out.notes, "check failed: "+jr.problem.Error())
		}
	}
	pick := func(f func(*jobResult) float64) []float64 {
		xs := make([]float64, len(jobs))
		for i, jr := range jobs {
			xs[i] = f(jr)
		}
		return xs
	}
	jobMs := msOf(jobs)
	last := jobs[len(jobs)-1]
	// Plan quality is the mean over the run's tree sets; each job
	// reproduces its set's reference exactly.
	var makespan, dirty, cands float64
	for _, ts := range env.sets {
		makespan += ts.refRes.Makespan / float64(len(env.sets))
		dirty += ts.refRes.DirtyEnergy / float64(len(env.sets))
		cands += ts.refMine["candidates"] / float64(len(env.sets))
	}
	out.notes = append(out.notes,
		fmt.Sprintf("batch-tree: %d jobs on %d tree sets, job p50 %.1f ms, plan p50 %.3f s, %.1f candidates per set",
			len(jobs), len(env.sets), median(jobMs), median(pick(func(j *jobResult) float64 { return seconds(j.planDur) })), cands))
	if !rc.trace {
		out.values["setup_s"] = setupS
		out.values["op_p50_ms"] = median(jobMs)
		out.values["op_tail_ms"] = quantile(jobMs, 0.9)
		out.values["throughput_per_s"] = float64(len(jobs)*env.size.trees) / loopDur.Seconds()
		out.values["plan_s"] = median(pick(func(j *jobResult) float64 { return seconds(j.planDur) }))
		out.values["makespan_s"] = makespan
		out.values["dirty_j"] = dirty
		return out, nil
	}

	v := map[string]float64{}
	layer := func(name string) float64 { return median(tr.perParent(name, "job")) }
	v["pivots.build_s"] = layer("pivots.build")
	v["pivots.allocs"] = median(pick(func(j *jobResult) float64 { return float64(j.allocs) }))
	v["strata.sketch_s"] = layer("strata.sketch")
	v["strata.cluster_s"] = layer("strata.cluster")
	v["strata.assign_s"] = layer("strata.assign")
	v["strata.iterations"] = median(pick(func(j *jobResult) float64 { return float64(j.strat.Iterations) }))
	v["strata.moved"] = median(pick(func(j *jobResult) float64 { return float64(j.strat.MovedTotal) }))
	v["profile.s"] = layer("profile")
	v["workloads.profile_s"] = layer("workloads.profile")
	v["profile.samples"] = median(pick(func(j *jobResult) float64 { return float64(j.profileSamples) }))
	v["opt.solve_s"] = layer("opt.solve")
	v["partitioner.partition_s"] = layer("partitioner.partition")
	v["partitioner.place_s"] = layer("partitioner.place")
	v["partitioner.place_mb"] = float64(last.placedBytes) / 1e6
	v["kvstore.read_s"] = layer("kvstore.read")
	v["kvstore.write_mb_per_s"] = v["partitioner.place_mb"] / v["partitioner.place_s"]
	v["cluster.exec_s"] = layer("cluster.exec")
	v["cluster.node_wall_max_s"] = median(pick(func(j *jobResult) float64 { return j.nodeWallMax }))
	// core's self time is each plan's time outside the layer calls.
	self := tr.perParent("plan", "job")
	for _, name := range []string{"pivots.build", "strata.stratify", "profile", "opt.solve", "partitioner.partition"} {
		for i, d := range tr.perParent(name, "job") {
			self[i] -= d
		}
	}
	v["core.self_s"] = median(self)
	v["telemetry.overhead_frac"] = median(jobMs)/median(msOf(untraced)) - 1
	out.values = v
	path, err := writeSpans(tr, "batch-tree", rc.seed)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, "spans written to "+path)
	out.notes = append(out.notes, layerTable(v)...)
	return out, nil
}

func msOf(jobs []*jobResult) []float64 {
	xs := make([]float64, len(jobs))
	for i, jr := range jobs {
		xs[i] = seconds(jr.jobDur) * 1e3
	}
	return xs
}
