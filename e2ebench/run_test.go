package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySize runs every workload in well under a second.
var tinySize = sizes{
	setups: 1,

	treeSets:     2,
	trees:        600,
	treeSupport:  0.2,
	treeMaxNodes: 3,
	clusterNodes: 4,

	textRecords:   2000,
	topics:        8,
	batch:         20,
	alienBatch:    100,
	broadShare:    0.04,
	episodeCycles: 10,
	minCycles:     10,

	frontierNodes: 8,
	rotateEvery:   4,
}

// TestWorkloadsTiny runs each workload, timed and traced, at tiny
// sizes and checks that every correctness check passes and every
// metric of BENCHMARK.json is produced.
func TestWorkloadsTiny(t *testing.T) {
	spec, err := readSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	// Traced runs write spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for name, fn := range workloads {
		if !spec.hasWorkload(name) {
			t.Errorf("workload %s is not in %s", name, specFile)
		}
		for _, trace := range []bool{false, true} {
			res, err := fn(runConfig{seed: 3, seconds: 0.2, trace: trace, size: tinySize})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				res.values["peak_rss_mb"] = 1
			}
			line, err := spec.resultLine(res, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out resultJSON
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: %s\n%s", name, trace, line, strings.Join(res.notes, "\n"))
			}
		}
	}
}

// TestCompareFlagsRegressions is the gate's own check: a deliberately
// slowed fixture and a fixture whose failure share grew must both be
// flagged against the base runs, and the base against itself must not.
func TestCompareFlagsRegressions(t *testing.T) {
	spec, err := readSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fixture string
		want    bool
		flagged string
	}{
		{"testdata/base.jsonl", false, ""},
		{"testdata/slowed.jsonl", true, "op_p50_ms"},
		{"testdata/failworse.jsonl", true, "fail_frac"},
	} {
		var out bytes.Buffer
		got, err := compareFiles(spec, "testdata/base.jsonl", c.fixture, &out)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: regression %v, want %v\n%s", c.fixture, got, c.want, out.String())
		}
		if c.flagged != "" && !strings.Contains(out.String(), c.flagged) {
			t.Errorf("%s: table lacks %s", c.fixture, c.flagged)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if c.flagged != "" && strings.HasPrefix(line, c.flagged+" ") && !strings.HasSuffix(line, string(regressed)) {
				t.Errorf("%s: %q not marked regressed", c.fixture, line)
			}
		}
	}
}

// TestJudgeUnresolved checks that a metric whose runs spread wider than
// its bound is reported unresolved rather than unchanged.
func TestJudgeUnresolved(t *testing.T) {
	m := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 100, 100, 100}
	noisy := []float64{60, 100, 140, 100, 180}
	if v, _ := judge(m, base, noisy); v != unresolved {
		t.Errorf("noisy runs judged %s, want %s", v, unresolved)
	}
	if v, _ := judge(m, base, []float64{101, 102, 101, 102}); v != ok {
		t.Errorf("steady runs within the bound judged %s, want %s", v, ok)
	}
	if v, _ := judge(m, base, []float64{80, 81, 82, 80}); v != improved {
		t.Errorf("uniformly faster runs judged %s, want %s", v, improved)
	}
}
