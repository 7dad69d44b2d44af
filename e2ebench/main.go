// Command e2ebench is the repository's end-to-end benchmark. It drives
// the planner, the replan loop and the frontier service only through
// their public functions, on inputs generated from a seed, checks
// every output for correctness, and prints one JSON result line.
//
// Usage (from the repository root, normally through run.sh):
//
//	e2ebench --workload batch-tree --seed 1 --seconds 25 --trace 0
//	e2ebench --compare base.jsonl new.jsonl
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics,
// measured by a separate traced run whose spans are written under
// .bench_build/trace. See README.md for what each metric means on
// each workload.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pareto/internal/kvstore"
)

// maxWorkers bounds every parallel stage the benchmark drives: planner
// workers, kvstore connections, HTTP clients and GOMAXPROCS. The
// reference machine has two CPUs with measurable steal, and a bound
// the host always honours keeps run-to-run spread low.
const maxWorkers = 2

// specFile is the benchmark definition, read from the working
// directory (the repository root).
const specFile = "BENCHMARK.json"

// workloadRun is what one workload run measured.
type workloadRun struct {
	attempted, failed int
	// values holds every metric the mode reports, keyed by the names
	// in BENCHMARK.json.
	values map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	size    sizes
}

// sizes are the generator and loop parameters of every workload.
// fullSize is what the benchmark runs; tests use a tiny copy.
type sizes struct {
	// setups is how many times each workload sets up; setup_s is the
	// median.
	setups int

	// batch-tree: treeSets corpora of trees trees each.
	treeSets     int
	trees        int
	treeSupport  float64
	treeMaxNodes int
	clusterNodes int

	// replan-stream.
	textRecords int
	topics      int
	batch       int
	// alienBatch is the size of an alien-topic batch; a broad batch is
	// one alien batch plus mutated copies of a broadShare of every
	// stratum's members.
	alienBatch int
	broadShare float64
	// episodeCycles is the fixed cycle count of one episode. A timed
	// run measures at least minCycles cycles, so that its 90th
	// percentile has ten cycles beyond it.
	episodeCycles int
	minCycles     int

	// frontier-http.
	frontierNodes int
	rotateEvery   int
}

var fullSize = sizes{
	setups: 5,

	treeSets:     3,
	trees:        50_000,
	treeSupport:  0.1,
	treeMaxNodes: 4,
	clusterNodes: 8,

	textRecords:   50_000,
	topics:        32,
	batch:         100,
	alienBatch:    1000,
	broadShare:    0.04,
	episodeCycles: 20,
	minCycles:     100,

	frontierNodes: 64,
	rotateEvery:   8,
}

var workloads = map[string]func(runConfig) (*workloadRun, error){
	"batch-tree":    runBatchTree,
	"replan-stream": runReplanStream,
	"frontier-http": runFrontierHTTP,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name from BENCHMARK.json")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	compare := fs.Bool("compare", false, "compare two result files: --compare base.jsonl new.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := readSpec(specFile)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("--compare needs a base and a new result file")
		}
		regressed, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return err
		}
		if regressed {
			return errors.New("regression against the base runs")
		}
		return nil
	}
	fn, ok := workloads[*workload]
	if !ok || !spec.hasWorkload(*workload) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(maxWorkers, runtime.NumCPU()))
	fmt.Fprintf(stdout, "# env go=%s numcpu=%d gomaxprocs=%d workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *workload, *seed, *seconds, *trace)
	res, err := fn(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize})
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if *trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		res.values["peak_rss_mb"] = rss
	}
	line, err := spec.resultLine(res, *trace == 1)
	if err != nil {
		return err
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON object. Every end-to-end metric
// must have been produced; a per-layer metric a workload did not
// produce reads 0, because that layer did no work in it. A metric
// missing from BENCHMARK.json is a bug, not a measurement.
func (s *benchSpec) resultLine(r *workloadRun, perLayer bool) ([]byte, error) {
	list := s.EndToEnd
	if perLayer {
		list = s.PerLayer
	}
	out := resultJSON{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range r.values {
		if _, ok := out.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in %s", name, specFile)
		}
	}
	return json.Marshal(out)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// deadline reports whether the measured window is over.
type deadline time.Time

func after(seconds float64) deadline {
	return deadline(time.Now().Add(time.Duration(seconds * float64(time.Second))))
}

func (d deadline) passed() bool { return !time.Now().Before(time.Time(d)) }

// writeSpans stores a traced run's spans under .bench_build/trace.
func writeSpans(tr *tracer, workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(tr.snapshot())
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// startStore starts an in-process kvstore on loopback with one client
// per allowed connection.
func startStore() (*kvstore.Server, []*kvstore.Client, error) {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("starting kvstore: %w", err)
	}
	clients := make([]*kvstore.Client, maxWorkers)
	for i := range clients {
		if clients[i], err = kvstore.Dial(addr, 5*time.Second); err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			srv.Close()
			return nil, nil, fmt.Errorf("dialing kvstore: %w", err)
		}
	}
	return srv, clients, nil
}

// setupRepeated runs a set-up n times, keeps the last environment and
// returns the median set-up time in seconds.
func setupRepeated[E any](n int, setup func() (E, error), release func(E)) (E, float64, error) {
	var env E
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			release(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		env = e
	}
	return env, median(durs), nil
}
