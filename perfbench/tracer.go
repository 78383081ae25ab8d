package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, kept in memory until the run ends.
type span struct {
	layer      string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
	child      time.Duration // time covered by direct children
}

// tracer records nested spans from one goroutine: the traced replay runs
// its layers one after another, so every span's children are disjoint and
// self time is duration minus children.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(layer string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: time.Since(t.origin)})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.end = time.Since(t.origin)
	d := s.end - s.start
	if s.parent >= 0 {
		t.spans[s.parent].child += d
	}
	return d
}

// do runs f inside a span.
func (t *tracer) do(layer string, f func()) time.Duration {
	t.begin(layer)
	f()
	return t.end()
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	calls int
	self  time.Duration
	total time.Duration
	durs  []time.Duration
}

// perCall is the mean inclusive duration of one call in unit.
func (s *layerStat) perCall(unit time.Duration) float64 {
	if s == nil || s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / float64(unit)
}

// stats aggregates the spans under root (every span when root < 0) by
// layer. A span's own layer name keys it; the root's self time is the
// replay's glue, reported as the "unaccounted" layer.
func (t *tracer) stats(root int) map[string]*layerStat {
	out := map[string]*layerStat{}
	for i := range t.spans {
		s := &t.spans[i]
		if root >= 0 && !t.under(i, root) {
			continue
		}
		name := s.layer
		if i == root {
			name = "unaccounted"
		}
		st := out[name]
		if st == nil {
			st = &layerStat{}
			out[name] = st
		}
		d := s.end - s.start
		st.calls++
		st.total += d
		st.self += d - s.child
		st.durs = append(st.durs, d)
	}
	return out
}

// under reports whether span i is root or nested inside it.
func (t *tracer) under(i, root int) bool {
	for ; i >= 0; i = t.spans[i].parent {
		if i == root {
			return true
		}
	}
	return false
}

// writeSelfTimes prints the layers' self times under root, largest first,
// as shares of the root's wall time.
func writeSelfTimes(w io.Writer, title string, stats map[string]*layerStat, wall time.Duration) {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].self > stats[names[j]].self })
	fmt.Fprintf(w, "%s: wall %.3fs\n", title, wall.Seconds())
	for _, name := range names {
		s := stats[name]
		fmt.Fprintf(w, "  %-22s self %9.3fms %5.1f%%  calls %7d\n", name,
			float64(s.self)/float64(time.Millisecond), 100*ratio(float64(s.self), float64(wall)), s.calls)
	}
}
