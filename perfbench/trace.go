package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory (32 bytes
// each). A traced phase ends early once the buffer is full.
const maxSpans = 1 << 18

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer started; parent is
// the index of the enclosing span, or -1 for a root.
type span struct {
	start, end int64
	trace      int32
	parent     int32
	name       uint16
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	names []string
	index map[string]uint16
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: map[string]uint16{}, spans: make([]span, 0, 1<<12)}
}

// full reports whether the span buffer is exhausted.
func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= maxSpans
}

// begin opens a span named "layer.function" and returns its index, or -1
// when nothing is recorded.
func (t *tracer) begin(name string, trace, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	t.spans = append(t.spans, span{start: now, end: now, trace: trace, parent: parent, name: id})
	return int32(len(t.spans) - 1)
}

// finish closes the span begin returned.
func (t *tracer) finish(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// record adds an already timed span (for intervals observed between
// callbacks rather than around one call).
func (t *tracer) record(name string, trace, parent int32, start, end time.Time) int32 {
	i := t.begin(name, trace, parent)
	if i < 0 {
		return i
	}
	t.mu.Lock()
	t.spans[i].start = start.Sub(t.t0).Nanoseconds()
	t.spans[i].end = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return i
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name  string
	count int
	total time.Duration // summed span durations
	self  time.Duration // durations minus the time child spans cover
}

func (s spanStat) meanUS() float64 { return ratio(us(s.total), float64(s.count)) }

// stats computes per-name totals and self times. A span's self time is its
// duration minus the summed durations of its direct children; the
// benchmark opens nested spans only on one goroutine, so children never
// overlap.
func (t *tracer) stats() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]spanStat{}
	for i, s := range t.spans {
		name := t.names[s.name]
		st := out[name]
		st.name = name
		st.count++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(s.end - s.start - child[i])
		out[name] = st
	}
	return out
}

// layerSelf sums self time by layer, the span-name prefix before the dot.
func layerSelf(stats map[string]spanStat) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, st := range stats {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.self
	}
	return out
}

// table renders the span statistics as a fixed-width stage table, sorted
// by self time.
func (t *tracer) table(title string) string {
	stats := t.stats()
	rows := make([]spanStat, 0, len(stats))
	var selfTotal time.Duration
	for _, st := range stats {
		rows = append(rows, st)
		selfTotal += st.self
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "# %-24s %9s %12s %12s %7s\n", "span", "count", "mean_us", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(&b, "# %-24s %9d %12.2f %12.1f %6.1f%%\n", r.name, r.count, r.meanUS(),
			ms(r.self), 100*ratio(float64(r.self), float64(selfTotal)))
	}
	layers := layerSelf(stats)
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	b.WriteString("# self time by layer:")
	for _, l := range names {
		fmt.Fprintf(&b, " %s %.1f%%", l, 100*ratio(float64(layers[l]), float64(selfTotal)))
	}
	b.WriteString("\n")
	return b.String()
}

// write saves the spans as JSON lines: name, trace id, span id, parent id,
// start and end in nanoseconds since the tracer started.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"trace":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			t.names[s.name], s.trace, i, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
