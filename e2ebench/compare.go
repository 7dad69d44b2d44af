package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// verdict is compare mode's finding for one metric.
type verdict string

const (
	ok         verdict = "ok"
	improved   verdict = "improved"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// readResults reads result lines, one JSON object per line; other
// lines, such as the benchmark's '#' notes, are skipped.
func readResults(path string) ([]resultJSON, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []resultJSON
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r resultJSON
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result lines", path)
	}
	return out, nil
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// judge applies a metric's direction and bound to two sets of runs.
// worse is how much the new median is worse than the base median, as
// a share of the base median (negative when better). A change inside
// the bound is ok; outside it, a regression. Either reading is
// unresolved when the runs of either side spread wider than the bound,
// unless every new run reads better than every base run.
func judge(m metricSpec, base, cur []float64) (verdict, float64) {
	mb, mc := median(base), median(cur)
	worse := 0.0
	switch {
	case mb != 0 && m.Better == "higher":
		worse = (mb - mc) / mb
	case mb != 0:
		worse = (mc - mb) / mb
	case mc != 0:
		worse = 1
	}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	allBetter := true
	for _, c := range cur {
		for _, b := range base {
			if !better(c, b) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && worse < 0:
		return improved, worse
	case spread(base) > m.Bound || spread(cur) > m.Bound:
		return unresolved, worse
	case worse > m.Bound:
		return regressed, worse
	default:
		return ok, worse
	}
}

// compareRuns judges the failure share and every end-to-end metric of
// two sets of runs of one workload, writes a table, and reports
// whether anything regressed.
func compareRuns(spec *benchSpec, base, cur []resultJSON, w io.Writer) bool {
	// Failures are judged on the pooled share of failed operations: any
	// growth is a regression, whatever the spread.
	failFrac := func(rs []resultJSON) float64 {
		failed, attempted := 0, 0
		for _, r := range rs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	values := func(rs []resultJSON, name string) []float64 {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.Metrics[name]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	regress := false
	fmt.Fprintf(w, "%-18s %-10s %14s %14s %9s  %s\n", "metric", "unit", "base median", "new median", "worse", "verdict")
	fb, fc := failFrac(base), failFrac(cur)
	fv := ok
	if fc > fb {
		fv, regress = regressed, true
	}
	fmt.Fprintf(w, "%-18s %-10s %14.6g %14.6g %9s  %s\n", "fail_frac", "ratio", fb, fc, "", fv)
	for _, m := range spec.EndToEnd {
		b, c := values(base, m.Name), values(cur, m.Name)
		if len(b) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-18s %-10s missing from one side\n", m.Name, m.Unit)
			regress = true
			continue
		}
		v, worse := judge(m, b, c)
		if v == regressed {
			regress = true
		}
		fmt.Fprintf(w, "%-18s %-10s %14.6g %14.6g %8.1f%%  %s\n", m.Name, m.Unit, median(b), median(c), 100*worse, v)
	}
	return regress
}

func compareFiles(spec *benchSpec, basePath, curPath string, w io.Writer) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return false, err
	}
	return compareRuns(spec, base, cur, w), nil
}
