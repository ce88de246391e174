package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, the request (operation)
// it serves, the span that caused it, and its interval in nanoseconds since
// the tracer's origin. Parent is -1 for a root span.
type span struct {
	ID     int
	Parent int
	Req    int
	Name   string
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, when the run
// ends. The program carries no spans of its own, so every span wraps a call
// the benchmark makes. A child span either runs inside its parent (a memo
// compute callback) or is the replay of the parent's inner call on the same
// input right after it; self time treats both the same way.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))})
	return id
}

// lastID is the id of the most recently opened span, or -1.
func (t *tracer) lastID() int {
	if t == nil {
		return -1
	}
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.origin)) }

// durations returns the durations in ns of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// spanIDs returns the ids of every span called name, in order.
func (t *tracer) spanIDs(name string) []int {
	var out []int
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ID)
		}
	}
	return out
}

// total is the summed duration in ns of every span called name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes returns, for every span called name that has children, its
// duration minus the length of the union of its children's intervals:
// children that overlap each other are counted once. Self time never goes
// below zero. A span whose inner calls were not replayed has no children
// and is left out.
func (t *tracer) selfTimes(name string) []float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || len(children[s.ID]) == 0 {
			continue
		}
		self := s.dur() - unionLength(children[s.ID])
		if self < 0 {
			self = 0
		}
		out = append(out, float64(self))
	}
	return out
}

// unionLength is the total length covered by the spans' intervals, with
// overlaps counted once.
func unionLength(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	curStart, curEnd := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
			continue
		}
		if s.End > curEnd {
			curEnd = s.End
		}
	}
	return total + curEnd - curStart
}

// write emits the spans as one JSON object: the span names once, then one
// [id, parent, req, name index, start ns, end ns] row per span.
func (t *tracer) write(w io.Writer) error {
	index := make(map[string]int)
	var names []string
	rows := make([][6]int64, len(t.spans))
	for i, s := range t.spans {
		k, ok := index[s.Name]
		if !ok {
			k = len(names)
			index[s.Name] = k
			names = append(names, s.Name)
		}
		rows[i] = [6]int64{int64(s.ID), int64(s.Parent), int64(s.Req), int64(k), s.Start, s.End}
	}
	return json.NewEncoder(w).Encode(struct {
		Names []string   `json:"names"`
		Spans [][6]int64 `json:"spans"`
	}{names, rows})
}

// timed runs f inside a span when t is non-nil, and returns f's duration in
// ns either way. A nil tracer is the untraced run.
func (t *tracer) timed(name string, req, parent int, f func()) (id int, ns int64) {
	if t == nil {
		start := time.Now()
		f()
		return -1, int64(time.Since(start))
	}
	id = t.begin(name, req, parent)
	f()
	t.end(id)
	return id, t.spans[id].dur()
}
