package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/energy"
	"pareto/internal/kvstore"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/replan"
	"pareto/internal/strata"
)

const (
	// topicWindow and docTerms shape the planted-topic corpus exactly
	// like the replan package's benchmark corpus: a document holds
	// docTerms consecutive terms of its topic's topicWindow-term block.
	topicWindow = 64
	docTerms    = 12
	// alienTerms is the vocabulary reserved for drifting records.
	alienTerms = 1 << 24
	// minBroadPerStratum is the fewest records broad drift adds to a
	// stratum.
	minBroadPerStratum = 5
	// alienPerDoc is how many terms an alien record holds.
	alienPerDoc = 6
	// streamKey is the kvstore list the generator appends to, at most
	// pushChunk records per RPUSH.
	streamKey = "stream"
	pushChunk = 256
)

// batchKind is what one generated batch is meant to trigger.
type batchKind int

const (
	// inDistribution records come from the planted topics: a clean
	// cycle.
	inDistribution batchKind = iota
	// alienTopic records are identical and far from every topic: they
	// drift exactly one stratum, an incremental cycle.
	alienTopic
	// broadDrift records are altered copies of members of every
	// stratum: every stratum drifts, a full cycle.
	broadDrift
)

var kindNames = [...]string{"clean", "incremental", "full"}

// episodeMix is one block of the cycle schedule: 20% clean, 60%
// incremental, 20% full, so the median cycle sits inside the
// incremental population and the 90th percentile inside the full one.
var episodeMix = []batchKind{
	inDistribution, inDistribution,
	alienTopic, alienTopic, alienTopic, alienTopic, alienTopic, alienTopic,
	broadDrift, broadDrift,
}

// textGen generates the seeded text stream.
type textGen struct {
	rng    *rand.Rand
	topics int
	alien  uint32
	// docs is every document generated so far, in corpus order.
	docs []pivots.Doc
}

func (g *textGen) vocab() int { return g.topics*topicWindow + alienTerms }

// topicDoc draws a document of topic t.
func (g *textGen) topicDoc(t int) pivots.Doc {
	off := g.rng.Intn(topicWindow)
	terms := make([]uint32, docTerms)
	for k := range terms {
		terms[k] = uint32(t*topicWindow + (off+k)%topicWindow)
	}
	sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
	return pivots.Doc{Terms: terms}
}

func (g *textGen) freshAlien() uint32 {
	t := uint32(g.topics*topicWindow) + g.alien
	g.alien++
	return t
}

// batch generates one batch of the given kind. Identical alien records
// tie on every frozen center and join stratum 0, which k-modes leaves
// as the one large mixed stratum with low center coverage on this
// corpus; that is why alien batches are larger than clean ones.
// strata are the loop's current stratum members: broad drift must
// reach every stratum, including small ones a uniform sample misses,
// so it is drawn from each of them.
func (g *textGen) batch(kind batchKind, size sizes, strata [][]int) []pivots.Doc {
	var docs []pivots.Doc
	switch kind {
	case inDistribution:
		for i := 0; i < size.batch; i++ {
			docs = append(docs, g.topicDoc(g.rng.Intn(g.topics)))
		}
	case alienTopic:
		docs = g.alienTopic(size.alienBatch)
	case broadDrift:
		// Mutated copies of an evenly spaced share of every stratum's
		// members (repeating members of strata smaller than
		// minBroadPerStratum), plus an alien batch for stratum 0.
		docs = g.alienTopic(size.alienBatch)
		for _, members := range strata {
			k := max(minBroadPerStratum, int(size.broadShare*float64(len(members))))
			for j := 0; j < k; j++ {
				docs = append(docs, g.mutate(g.docs[members[j*len(members)/k]]))
			}
		}
	}
	return docs
}

// mutate keeps a random two thirds of d's terms and replaces the rest
// with fresh terms: close enough to d to join d's stratum, different
// enough to lower its center coverage.
func (g *textGen) mutate(d pivots.Doc) pivots.Doc {
	terms := append([]uint32(nil), d.Terms...)
	g.rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	for k := (2*len(terms) + 2) / 3; k < len(terms); k++ {
		terms[k] = g.freshAlien()
	}
	sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
	return pivots.Doc{Terms: terms}
}

// alienTopic returns n copies of one document made of fresh terms.
func (g *textGen) alienTopic(n int) []pivots.Doc {
	terms := make([]uint32, alienPerDoc)
	for k := range terms {
		terms[k] = g.freshAlien()
	}
	docs := make([]pivots.Doc, n)
	for i := range docs {
		docs[i] = pivots.Doc{Terms: append([]uint32(nil), terms...)}
	}
	return docs
}

// wire encodes documents in the text record wire format.
func wire(docs []pivots.Doc, vocab int) ([][]byte, error) {
	c, err := pivots.NewTextCorpusParallel(docs, vocab, 1)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(docs))
	for i := range docs {
		out[i] = c.AppendRecord(nil, i)
	}
	return out, nil
}

// textCost prices a set of records as a fixed overhead plus a cost per
// term: affine in the data, so the fitted intercept stays positive and
// the replan loop's LP re-solves stay warm.
func textCost(c pivots.Corpus, indices []int) float64 {
	cost := 50_000.0
	for _, i := range indices {
		cost += 2000 * float64(c.Weight(i))
	}
	return cost
}

func replanCoreConfig(seed int64, topics int) core.Config {
	return core.Config{
		Strategy: core.HetEnergyAware,
		Alpha:    batchAlpha,
		Scheme:   partitioner.Representative,
		Stratifier: strata.StratifierConfig{
			SketchWidth: 24,
			Cluster:     strata.Config{K: topics, L: 3, Seed: seed},
			Seed:        seed,
		},
		SampleSeed:  seed,
		TraceOffset: traceOffset,
		Workers:     maxWorkers,
	}
}

// episode is one replan-stream set-up: a seeded 50k-record base corpus
// planned by replan.New into the kvstore, and the stream still to come.
type episode struct {
	gen     *textGen
	cl      *cluster.Cluster
	srv     *kvstore.Server
	clients []*kvstore.Client
	loop    *replan.Loop
	tailer  *replan.Tailer
	cfg     core.Config
}

func (e *episode) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

func setupEpisode(size sizes, seed int64) (*episode, error) {
	gen := &textGen{rng: rand.New(rand.NewSource(seed)), topics: size.topics}
	docs := make([]pivots.Doc, size.textRecords)
	for i := range docs {
		docs[i] = gen.topicDoc(gen.rng.Intn(size.topics))
	}
	gen.docs = docs
	base, err := pivots.NewTextCorpusParallel(docs, gen.vocab(), maxWorkers)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.PaperCluster(size.clusterNodes, energy.DefaultPanel(), 172, 48)
	if err != nil {
		return nil, err
	}
	srv, clients, err := startStore()
	if err != nil {
		return nil, err
	}
	e := &episode{gen: gen, cl: cl, srv: srv, clients: clients, cfg: replanCoreConfig(seed, size.topics)}
	store, err := partitioner.NewKVStore(clients, pipelineWidth, "part")
	if err != nil {
		e.close()
		return nil, err
	}
	// The profile prices whatever corpus the loop holds: the base during
	// replan.New, the live corpus after.
	var live pivots.Corpus = base
	profile := func(idx []int) (float64, error) { return textCost(live, idx), nil }
	e.loop, err = replan.New(base, cl, profile, replan.Config{
		Core:             e.cfg,
		Drift:            strata.DriftConfig{Threshold: driftThreshold},
		MaxMovesPerCycle: maxMovesPerCycle,
		Store:            store,
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("seed plan: %w", err)
	}
	live = e.loop.Corpus()
	e.tailer = &replan.Tailer{Client: clients[1], Key: streamKey, Kind: pivots.TextData}
	return e, nil
}

const (
	// driftThreshold separates the three batch kinds: in-distribution
	// batches stay below it, an alien batch crosses it in one stratum,
	// a broad batch in all of them.
	driftThreshold = 0.0015
	// maxMovesPerCycle bounds migrations of already-placed records.
	maxMovesPerCycle = 4000
)

// cycleResult is one measured control cycle.
type cycleResult struct {
	intended batchKind
	rep      *replan.CycleReport
	pushDur  time.Duration
	pollDur  time.Duration
	// cycleDur runs from Poll start to Cycle return.
	cycleDur time.Duration
	records  int
	// fullStats is the stratifier's report of a full cycle.
	fullStats *strata.StratifyStats
	problem   error
	// aborted marks a cycle that failed inside the loop; it has no
	// report and ends its episode.
	aborted bool
}

// cycle pushes one batch, polls it into the loop and runs one cycle,
// with a span around each call when traced.
func (e *episode) cycle(kind batchKind, size sizes, tr *tracer) (*cycleResult, error) {
	docs := e.gen.batch(kind, size, e.loop.Plan().Strat.Members)
	recs, err := wire(docs, e.gen.vocab())
	if err != nil {
		return nil, err
	}
	cr := &cycleResult{intended: kind, records: len(docs)}
	root := tr.open("cycle", -1)
	sp := tr.open("kvstore.push", root)
	t0 := time.Now()
	for lo := 0; lo < len(recs); lo += pushChunk {
		if _, err := e.clients[0].RPush(streamKey, recs[lo:min(lo+pushChunk, len(recs))]...); err != nil {
			return nil, fmt.Errorf("pushing batch: %w", err)
		}
	}
	cr.pushDur = time.Since(t0)
	tr.close(sp)
	sp = tr.open("replan.poll", root)
	t1 := time.Now()
	got, err := e.tailer.Poll(e.loop)
	if err != nil {
		return nil, fmt.Errorf("polling: %w", err)
	}
	cr.pollDur = time.Since(t1)
	tr.close(sp)
	sp = tr.open("replan.cycle", root)
	rep, err := cycleSafely(e.loop)
	cr.cycleDur = time.Since(t1)
	tr.close(sp)
	tr.close(root)
	if err != nil {
		// The loop's state is unknown after a failed cycle: the caller
		// counts the cycle as failed and abandons the episode.
		cr.problem, cr.aborted = err, true
		return cr, nil
	}
	cr.rep = rep
	if rep.Kind == replan.CycleFull {
		st := e.loop.Plan().Strat.Stats
		cr.fullStats = &st
		tr.add("strata.sketch", sp, st.SketchTime)
		tr.add("strata.cluster", sp, st.ClusterTime)
	}
	e.gen.docs = append(e.gen.docs, docs...)
	if got != len(docs) {
		cr.problem = fmt.Errorf("polled %d records, pushed %d", got, len(docs))
	}
	return cr, nil
}

// cycleSafely runs one cycle and reports a panic inside the loop as an
// error, so that a defect in the system is counted as a failed cycle
// instead of ending the run.
func cycleSafely(l *replan.Loop) (rep *replan.CycleReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cycle panicked: %v", r)
		}
	}()
	rep, err = l.Cycle()
	if err != nil {
		err = fmt.Errorf("cycle: %w", err)
	}
	return rep, err
}

// checkStore reads every partition back from the epoch store and
// compares it with the loop's committed placement.
func (e *episode) checkStore() error {
	actual := e.loop.Actual()
	c := e.loop.Corpus()
	var buf []byte
	for j, idx := range actual.Parts {
		recs, err := e.loop.Store().ReadPartition(j)
		if err != nil {
			return fmt.Errorf("epoch store partition %d unreadable: %w", j, err)
		}
		if len(recs) != len(idx) {
			return fmt.Errorf("epoch store partition %d holds %d records, placement has %d", j, len(recs), len(idx))
		}
		for k, i := range idx {
			buf = c.AppendRecord(buf[:0], i)
			if !bytes.Equal(recs[k], buf) {
				return fmt.Errorf("epoch store partition %d record %d differs from record %d", j, k, i)
			}
		}
	}
	if err := actual.Validate(c.Len()); err != nil {
		return fmt.Errorf("placement: %w", err)
	}
	return nil
}

// checkFinal compares the loop's plan after its forced full cycle with
// a cold core.BuildPlan over the union corpus.
func (e *episode) checkFinal(last *cycleResult) error {
	if last.rep.Kind != replan.CycleFull {
		return fmt.Errorf("forced full cycle ran as %v (%d strata dirty)", last.rep.Kind, len(last.rep.Dirty))
	}
	union, err := pivots.NewTextCorpusParallel(e.gen.docs, e.gen.vocab(), maxWorkers)
	if err != nil {
		return err
	}
	cold, err := core.BuildPlan(union, e.cl, func(idx []int) (float64, error) { return textCost(union, idx), nil }, e.cfg)
	if err != nil {
		return fmt.Errorf("cold plan: %w", err)
	}
	if err := samePlan(e.loop.Plan(), cold); err != nil {
		return fmt.Errorf("final plan differs from a cold BuildPlan: %w", err)
	}
	return nil
}

// execute runs the final plan's text job on the cluster.
func (e *episode) execute() (*cluster.Result, error) {
	c := e.loop.Corpus()
	return core.Execute(e.cl, e.loop.Plan(), func(_ int, idx []int) (float64, error) {
		return textCost(c, idx), nil
	}, traceOffset)
}

// streamRun is what a series of episodes measured.
type streamRun struct {
	cycles   []*cycleResult
	setups   []float64
	measured time.Duration
	// final is the last episode's final plan executed on the cluster.
	final *cluster.Result
}

// runEpisodes runs whole episodes until the window is over and at
// least minCycles cycles ran.
func runEpisodes(rc runConfig, tr *tracer, until deadline, minCycles int) (*streamRun, error) {
	schedule := episodeSchedule(rc.seed, rc.size.episodeCycles)
	sr := &streamRun{}
	for len(sr.cycles) < minCycles || !until.passed() {
		t0 := time.Now()
		ep, err := setupEpisode(rc.size, rc.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sr.setups = append(sr.setups, time.Since(t0).Seconds())
		for i, kind := range schedule {
			cr, err := ep.cycle(kind, rc.size, tr)
			if err != nil {
				ep.close()
				return nil, err
			}
			sr.cycles = append(sr.cycles, cr)
			if cr.aborted {
				break
			}
			sr.measured += cr.pushDur + cr.cycleDur
			if cr.problem == nil {
				cr.problem = ep.checkStore()
			}
			if i == len(schedule)-1 && cr.problem == nil {
				cr.problem = ep.checkFinal(cr)
			}
		}
		// After an aborted cycle this executes the plan the loop was
		// left with; the run already reports the failure.
		sr.final, err = ep.execute()
		ep.close()
		if err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// runReplanStream is the replan-stream workload: a single controller
// in a closed loop. The stream is cut into episodes of a fixed cycle
// schedule, each on a fresh set-up, so the corpus size and store
// contents at every cycle do not depend on how fast earlier cycles
// ran.
func runReplanStream(rc runConfig) (*workloadRun, error) {
	out := &workloadRun{values: map[string]float64{}}
	if !rc.trace {
		sr, err := runEpisodes(rc, nil, after(rc.seconds), rc.size.minCycles)
		if err != nil {
			return nil, err
		}
		ms := streamSummary(sr.cycles, out)
		records := 0
		var full []float64
		for _, cr := range sr.cycles {
			if cr.aborted {
				continue
			}
			records += cr.records
			if cr.rep.Kind == replan.CycleFull {
				full = append(full, seconds(cr.cycleDur))
			}
		}
		out.values["setup_s"] = median(sr.setups)
		out.values["op_p50_ms"] = median(ms)
		out.values["op_tail_ms"] = quantile(ms, 0.9)
		out.values["throughput_per_s"] = float64(records) / sr.measured.Seconds()
		out.values["plan_s"] = median(full)
		out.values["makespan_s"] = sr.final.Makespan
		out.values["dirty_j"] = sr.final.DirtyEnergy
		return out, nil
	}

	// A traced run measures untraced episodes first, for the overhead
	// estimate, then traced ones for the split.
	base, err := runEpisodes(rc, nil, after(rc.seconds/2), 0)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	sr, err := runEpisodes(rc, tr, after(rc.seconds/2), 0)
	if err != nil {
		return nil, err
	}
	ms := streamSummary(sr.cycles, out)
	v := map[string]float64{}
	byKind := map[replan.CycleKind][]float64{}
	var dirty, pollMs, pushMs []float64
	var warm, solved, hits, runs, applied, deferred float64
	var stats []strata.StratifyStats
	var done []*cycleResult
	for _, cr := range sr.cycles {
		if !cr.aborted {
			done = append(done, cr)
		}
	}
	for i, cr := range done {
		r := cr.rep
		byKind[r.Kind] = append(byKind[r.Kind], ms[i])
		dirty = append(dirty, float64(len(r.Dirty)))
		pollMs = append(pollMs, seconds(cr.pollDur)*1e3)
		pushMs = append(pushMs, seconds(cr.pushDur)*1e3)
		if r.LPSolved {
			solved++
			if r.LPWarm {
				warm++
			}
		}
		hits += float64(r.ProfileCacheHits)
		runs += float64(r.ProfileRuns)
		applied += float64(r.MovesApplied)
		deferred += float64(r.MovesDeferred)
		if cr.fullStats != nil {
			stats = append(stats, *cr.fullStats)
		}
	}
	for k, name := range kindNames {
		v["replan.cycles."+name] = float64(len(byKind[replan.CycleKind(k)]))
		v["replan.cycle_ms."+name] = median(byKind[replan.CycleKind(k)])
	}
	n := float64(len(done))
	v["replan.dirty_strata"] = median(dirty)
	if solved > 0 {
		v["replan.lp_warm_frac"] = warm / solved
	}
	if hits+runs > 0 {
		v["replan.profile_hit_frac"] = hits / (hits + runs)
	}
	v["replan.moves_applied"] = applied / n
	v["replan.moves_deferred"] = deferred / n
	v["replan.poll_ms"] = median(pollMs)
	v["kvstore.push_ms"] = median(pushMs)
	pick := func(f func(strata.StratifyStats) float64) float64 {
		xs := make([]float64, len(stats))
		for i, st := range stats {
			xs[i] = f(st)
		}
		return median(xs)
	}
	v["strata.sketch_s"] = pick(func(st strata.StratifyStats) float64 { return seconds(st.SketchTime) })
	v["strata.cluster_s"] = pick(func(st strata.StratifyStats) float64 { return seconds(st.ClusterTime) })
	v["strata.assign_s"] = pick(func(st strata.StratifyStats) float64 {
		var d time.Duration
		for _, it := range st.Iters {
			d += it.Assign
		}
		return seconds(d)
	})
	v["strata.iterations"] = pick(func(st strata.StratifyStats) float64 { return float64(st.Iterations) })
	v["strata.moved"] = pick(func(st strata.StratifyStats) float64 { return float64(st.MovedTotal) })
	baseMs := streamSummary(base.cycles, &workloadRun{})
	v["telemetry.overhead_frac"] = median(ms)/median(baseMs) - 1
	out.values = v
	path, err := writeSpans(tr, "replan-stream", rc.seed)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, "spans written to "+path)
	out.notes = append(out.notes, layerTable(v)...)
	return out, nil
}

// streamSummary counts attempts and failures into out, adds a summary
// note, and returns the time of every cycle that completed, in
// milliseconds. A cycle that failed inside the loop counts as failed
// and has no time.
func streamSummary(cycles []*cycleResult, out *workloadRun) []float64 {
	var ms []float64
	count := map[replan.CycleKind]int{}
	mismatched := 0
	for _, cr := range cycles {
		out.attempted++
		if cr.problem != nil {
			out.failed++
			out.notes = append(out.notes, "check failed: "+cr.problem.Error())
		}
		if cr.aborted {
			continue
		}
		ms = append(ms, seconds(cr.cycleDur)*1e3)
		count[cr.rep.Kind]++
		if cr.rep.Kind.String() != kindNames[cr.intended] {
			mismatched++
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("replan-stream: %d cycles (clean %d, incremental %d, full %d; %d not of the intended kind), p50 %.1f ms, p90 %.1f ms",
		len(cycles), count[replan.CycleClean], count[replan.CycleIncremental], count[replan.CycleFull], mismatched,
		median(ms), quantile(ms, 0.9)))
	return ms
}

// episodeSchedule shuffles the mix within each block of ten cycles and
// ends on a broad batch, the forced full cycle.
func episodeSchedule(seed int64, n int) []batchKind {
	rng := rand.New(rand.NewSource(seed))
	var s []batchKind
	for len(s) < n-1 {
		block := append([]batchKind(nil), episodeMix...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		s = append(s, block...)
	}
	return append(s[:n-1], broadDrift)
}
