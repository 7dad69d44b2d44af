package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"pareto/internal/frontier"
	"pareto/internal/opt"
	"pareto/internal/sampling"
	"pareto/internal/telemetry"
)

const (
	// frontierTotal is the data-unit count every model set sizes.
	frontierTotal = 1_000_000
	// modelSets is how many distinct model sets a run rotates through.
	modelSets = 64
	// sweepAlphas is the α count of a sampled query.
	sweepAlphas = 41
	// httpClients is the number of closed-loop clients.
	httpClients = 2
	// enumWorkers is the service's enumeration parallelism. The two
	// clients already keep both CPUs busy, and a serial 64-node sweep
	// is faster than a 2-worker one.
	enumWorkers = 1
)

// drawModels builds one paper-shaped model set: the four machine
// classes of frontier.PaperModels, each node's speed, intercept and
// dirty rate jittered by up to ±5% from the seed.
func drawModels(rng *rand.Rand, p int) []opt.NodeModel {
	speeds := [4]float64{4, 3, 2, 1}
	watts := [4]float64{440, 345, 250, 155}
	jitter := func() float64 { return 1 + 0.1*(rng.Float64()-0.5) }
	nodes := make([]opt.NodeModel, p)
	for i := range nodes {
		class := i % 4
		nodes[i] = opt.NodeModel{
			Time: sampling.LinearFit{
				Slope:     4e-6 / speeds[class] * jitter(),
				Intercept: 0.05 * float64(class) * jitter(),
			},
			DirtyRate: watts[class] * 0.55 * jitter(),
		}
	}
	return nodes
}

// rotatingSource is the service's model source; install swaps the set,
// standing in for a replan installing new models.
type rotatingSource struct {
	mu    sync.Mutex
	nodes []opt.NodeModel
}

func (s *rotatingSource) install(nodes []opt.NodeModel) {
	s.mu.Lock()
	s.nodes = nodes
	s.mu.Unlock()
}

// FrontierModels implements frontier.ModelSource.
func (s *rotatingSource) FrontierModels() ([]opt.NodeModel, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes, frontierTotal, nil
}

// frontierEnv is the set-up state of frontier-http.
type frontierEnv struct {
	sets   [][]opt.NodeModel
	source *rotatingSource
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

func (e *frontierEnv) close() {
	e.client.CloseIdleConnections()
	e.srv.Close()
	<-e.served
}

func setupFrontier(size sizes, seed int64) (*frontierEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &frontierEnv{source: &rotatingSource{}, served: make(chan error, 1)}
	for i := 0; i < modelSets; i++ {
		e.sets = append(e.sets, drawModels(rng, size.frontierNodes))
	}
	e.source.install(e.sets[0])
	// The service sits on the telemetry mux, as cmd binaries mount it;
	// the registry is nil because timed runs keep telemetry off.
	var reg *telemetry.Registry
	mux := reg.Handler()
	frontier.Mount(mux, frontier.NewService(e.source, frontier.Config{Workers: enumWorkers}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	e.srv = &http.Server{Handler: mux}
	go func() { e.served <- e.srv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String() + "/frontier"
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpClients}, Timeout: 30 * time.Second}
	// One exact query proves the service is up and leaves a warm
	// connection, so the measured rounds start steady.
	if _, err := e.get(true); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return e, nil
}

// frontierResponse mirrors the service's JSON reply.
type frontierResponse struct {
	Nodes  int  `json:"nodes"`
	Total  int  `json:"total"`
	Exact  bool `json:"exact"`
	Points []struct {
		Alpha       float64   `json:"alpha"`
		Makespan    float64   `json:"makespan_s"`
		DirtyEnergy float64   `json:"dirty_energy_j"`
		Objectives  []float64 `json:"objectives"`
		Sizes       []int     `json:"sizes"`
		Warm        bool      `json:"warm"`
		Pivots      int       `json:"pivots"`
		Dominated   bool      `json:"dominated,omitempty"`
	} `json:"points"`
	Stats struct {
		Solves      int     `json:"solves"`
		WarmSolves  int     `json:"warm_solves"`
		Pivots      int     `json:"pivots"`
		WarmPivots  int     `json:"warm_pivots"`
		Breakpoints int     `json:"breakpoints"`
		Dominated   int     `json:"dominated"`
		ElapsedMs   float64 `json:"elapsed_ms"`
	} `json:"stats"`
}

// query is one measured request.
type query struct {
	set     int
	exact   bool
	latency time.Duration
	resp    *frontierResponse
	problem error
}

func (e *frontierEnv) get(exact bool) (*frontierResponse, error) {
	url := fmt.Sprintf("%s?alphas=%d", e.url, sweepAlphas)
	if exact {
		url = e.url + "?exact=1"
	}
	resp, err := e.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out frontierResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &out, nil
}

// round installs one model set and runs size.rotateEvery queries on
// httpClients closed-loop clients, alternating sweeps and exact
// enumerations. Failed requests are recorded, not returned.
func (e *frontierEnv) round(set, queries int, tr *tracer) []*query {
	e.source.install(e.sets[set])
	out := make([]*query, queries)
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < queries; i += httpClients {
				q := &query{set: set, exact: (i/httpClients+c)%2 == 1}
				sp := tr.open("query", -1)
				t0 := time.Now()
				q.resp, q.problem = e.get(q.exact)
				q.latency = time.Since(t0)
				tr.close(sp)
				out[i] = q
			}
		}(c)
	}
	wg.Wait()
	return out
}

// expected computes the direct frontier.Sweep or Exact result for a
// model set, with the service's configuration.
func expected(nodes []opt.NodeModel, exact bool) (*frontier.Result, error) {
	cfg := frontier.Config{Workers: enumWorkers}
	if exact {
		return frontier.Exact(nodes, frontierTotal, cfg)
	}
	cfg.Alphas = frontier.UniformAlphas(sweepAlphas)
	return frontier.Sweep(nodes, frontierTotal, cfg)
}

// checkResponse compares a response with the direct result.
func checkResponse(got *frontierResponse, want *frontier.Result, nodes []opt.NodeModel, exact bool) error {
	if got.Nodes != len(nodes) || got.Total != frontierTotal || got.Exact != exact {
		return fmt.Errorf("response header nodes=%d total=%d exact=%v", got.Nodes, got.Total, got.Exact)
	}
	front := want.Frontier()
	if len(got.Points) != len(front) {
		return fmt.Errorf("%d points, direct call gives %d", len(got.Points), len(front))
	}
	for i, p := range front {
		g := got.Points[i]
		if g.Alpha != p.Alpha || g.Makespan != p.Makespan || g.DirtyEnergy != p.DirtyEnergy ||
			!reflect.DeepEqual(g.Objectives, p.Objectives) || !reflect.DeepEqual(g.Sizes, p.Plan.Sizes) ||
			g.Warm != p.Warm || g.Pivots != p.Pivots {
			return fmt.Errorf("point %d differs from the direct call", i)
		}
	}
	s := want.Stats
	if got.Stats.Solves != s.Solves || got.Stats.WarmSolves != s.WarmSolves || got.Stats.Pivots != s.Pivots ||
		got.Stats.Breakpoints != s.Breakpoints || got.Stats.Dominated != s.Dominated {
		return errors.New("solve statistics differ from the direct call")
	}
	return nil
}

// runFrontierHTTP is the frontier-http workload.
func runFrontierHTTP(rc runConfig) (*workloadRun, error) {
	env, setupS, err := setupRepeated(rc.size.setups, func() (*frontierEnv, error) { return setupFrontier(rc.size, rc.seed) }, (*frontierEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	var tr *tracer
	window := rc.seconds
	if rc.trace {
		tr = newTracer()
		window /= 2
	}
	// Direct results are computed once per (set, kind), outside the
	// measured rounds; enumerateMs times those direct calls.
	type key struct {
		set   int
		exact bool
	}
	direct := map[key]*frontier.Result{}
	var enumerateMs []float64
	loop := func(t *tracer, until deadline) ([]*query, time.Duration, error) {
		var qs []*query
		var measured time.Duration
		for r := 0; len(qs) == 0 || !until.passed(); r++ {
			set := r % len(env.sets)
			t0 := time.Now()
			round := env.round(set, rc.size.rotateEvery, t)
			measured += time.Since(t0)
			for _, q := range round {
				k := key{q.set, q.exact}
				want, ok := direct[k]
				if !ok {
					d0 := time.Now()
					if want, err = expected(env.sets[q.set], q.exact); err != nil {
						return nil, 0, err
					}
					enumerateMs = append(enumerateMs, seconds(time.Since(d0))*1e3)
					direct[k] = want
				}
				if q.problem == nil {
					q.problem = checkResponse(q.resp, want, env.sets[q.set], q.exact)
				}
			}
			qs = append(qs, round...)
		}
		return qs, measured, nil
	}
	untraced, measured, err := loop(nil, after(window))
	if err != nil {
		return nil, err
	}
	qs := untraced
	if rc.trace {
		if qs, measured, err = loop(tr, after(window)); err != nil {
			return nil, err
		}
	}
	out := &workloadRun{values: map[string]float64{}}
	var lat, enum, httpMs, solves, pivots, warm, points []float64
	bestMakespan := map[int]float64{}
	bestDirty := map[int]float64{}
	for _, q := range qs {
		out.attempted++
		if q.problem != nil {
			out.failed++
			if out.failed <= 5 {
				out.notes = append(out.notes, "check failed: "+q.problem.Error())
			}
			continue
		}
		ms := seconds(q.latency) * 1e3
		lat = append(lat, ms)
		r := q.resp
		enum = append(enum, r.Stats.ElapsedMs)
		httpMs = append(httpMs, ms-r.Stats.ElapsedMs)
		solves = append(solves, float64(r.Stats.Solves))
		pivots = append(pivots, float64(r.Stats.Pivots))
		if r.Stats.Solves > 0 {
			warm = append(warm, float64(r.Stats.WarmSolves)/float64(r.Stats.Solves))
		}
		points = append(points, float64(len(r.Points)))
		if q.exact {
			m, d := math.Inf(1), math.Inf(1)
			for _, p := range r.Points {
				m, d = min(m, p.Makespan), min(d, p.DirtyEnergy)
			}
			bestMakespan[q.set], bestDirty[q.set] = m, d
		}
	}
	if len(lat) == 0 {
		return nil, errors.New("every query failed")
	}
	out.notes = append(out.notes, fmt.Sprintf("frontier-http: %d queries over %d model sets, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms",
		len(qs), len(bestMakespan), median(lat), quantile(lat, 0.9), quantile(lat, 0.99)))
	if !rc.trace {
		var ms, ds []float64
		for set, m := range bestMakespan {
			ms, ds = append(ms, m), append(ds, bestDirty[set])
		}
		out.values["setup_s"] = setupS
		out.values["op_p50_ms"] = median(lat)
		out.values["op_tail_ms"] = quantile(lat, 0.9)
		out.values["throughput_per_s"] = float64(len(qs)) / measured.Seconds()
		out.values["plan_s"] = median(enum) / 1e3
		out.values["makespan_s"] = median(ms)
		out.values["dirty_j"] = median(ds)
		return out, nil
	}
	v := map[string]float64{}
	v["frontier.solves"] = median(solves)
	v["frontier.pivots"] = median(pivots)
	v["frontier.warm_frac"] = median(warm)
	v["frontier.enumerate_ms"] = median(enumerateMs)
	v["frontier.http_ms"] = median(httpMs)
	v["frontier.points"] = median(points)
	var base []float64
	for _, q := range untraced {
		base = append(base, seconds(q.latency)*1e3)
	}
	v["telemetry.overhead_frac"] = median(lat)/median(base) - 1
	out.values = v
	path, err := writeSpans(tr, "frontier-http", rc.seed)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, "spans written to "+path)
	out.notes = append(out.notes, layerTable(v)...)
	return out, nil
}
