package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function. Parent is the ID of the enclosing span, or
// -1 at the top.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so timed runs call the
// same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: now, EndNs: -1})
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records an already-measured interval as a closed child span —
// for splits a layer reports itself, such as StratifyStats.
func (t *tracer) add(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].StartNs
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNs: start, EndNs: start + d.Nanoseconds()})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// perParent sums the durations (seconds) of spans called name under
// each span called parent, one value per parent span, in span order.
// A parent without such a child contributes 0.
func (t *tracer) perParent(name, parent string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name == parent {
			sums[s.ID] = 0
			order = append(order, s.ID)
		}
	}
	for _, s := range t.spans {
		if s.Name != name || s.Parent < 0 || s.EndNs < 0 {
			continue
		}
		// Walk up to the nearest ancestor called parent.
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if t.spans[p].Name == parent {
				sums[p] += float64(s.EndNs-s.StartNs) / 1e9
				break
			}
		}
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = sums[id]
	}
	return out
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// layerTable renders the non-zero per-layer metrics, one per line.
func layerTable(v map[string]float64) []string {
	names := make([]string, 0, len(v))
	for n, x := range v {
		if x != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, n := range names {
		lines[i] = fmt.Sprintf("layer %-28s %.6g", n, v[n])
	}
	return lines
}
