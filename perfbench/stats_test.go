package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := ramp(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n              int
		p              float64
		value, usedPct float64
	}{
		// 1000 samples: rank 990 leaves exactly ten beyond, so p99 stands.
		{1000, 99, 990, 99},
		// 999 samples: p99 is rank 990 with nine beyond; fall back to rank 989.
		{999, 99, 989, 100 * 989.0 / 999},
		// 500 samples: p99 would leave five; rank 490 is the highest with ten.
		{500, 99, 490, 98},
		{500, 90, 450, 90},
		// 110 samples (a short batch-cold run): p99 falls back to rank 100.
		{110, 99, 100, 100 * 100.0 / 110},
		// Ten samples or fewer: no percentile has ten beyond; the median stands in.
		{10, 99, 5, 50},
	}
	for _, c := range cases {
		v, used := tail(ramp(c.n), c.p)
		if v != c.value || math.Abs(used-c.usedPct) > 1e-9 {
			t.Errorf("tail(n=%d, p%v) = (%v, p%v), want (%v, p%v)", c.n, c.p, v, used, c.value, c.usedPct)
		}
		if c.n > minBeyond {
			if beyond := c.n - int(v); beyond < minBeyond {
				t.Errorf("tail(n=%d, p%v) leaves %d samples beyond", c.n, c.p, beyond)
			}
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "server.serve", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "memo.peek", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "memo.do", Start: 30, End: 60},            // overlaps span 1 by 10
		{ID: 3, Parent: 2, Name: "ringlang.recognize", Start: 35, End: 55}, // grandchild: not subtracted from 0
		{ID: 4, Parent: 0, Name: "memo.put", Start: 70, End: 80},
		{ID: 5, Parent: -1, Name: "server.serve", Start: 200, End: 210},
		{ID: 6, Parent: 5, Name: "memo.peek", Start: 190, End: 230},     // covers more than its parent
		{ID: 7, Parent: -1, Name: "server.serve", Start: 300, End: 350}, // not replayed: no children
	}}
	got := tr.selfTimes("server.serve")
	// Span 0: 100 - |[10,60] ∪ [70,80]| = 100 - 60. Span 5 clamps to zero.
	// Span 7 has no children and is left out.
	if len(got) != 2 || got[0] != 40 || got[1] != 0 {
		t.Fatalf("selfTimes = %v, want [40 0]", got)
	}
	if self := tr.selfTimes("memo.do"); len(self) != 1 || self[0] != 10 {
		t.Fatalf("memo.do self = %v, want [10]", self)
	}
	if u := unionLength(nil); u != 0 {
		t.Fatalf("unionLength(nil) = %d", u)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	ran := false
	id, ns := tr.timed("x", 0, -1, func() { ran = true })
	if !ran || id != -1 || ns < 0 {
		t.Fatalf("nil tracer: ran=%v id=%d ns=%d", ran, id, ns)
	}
	if tr.lastID() != -1 {
		t.Fatal("nil tracer has a last span")
	}
}

func TestThroughputCoversTheFixedWorkPhaseOnly(t *testing.T) {
	var ph phase
	// Warm-up and checks run outside the phase: they add nothing to it.
	for i := 0; i < 90; i++ {
		ph.add(4, 2e6) // 4 words per 2 ms: 2000 words/s
	}
	if got := ph.throughput(); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("throughput = %v, want 2000", got)
	}
	if ph.words() != 360 {
		t.Fatalf("words = %d, want 360", ph.words())
	}
	// A burst of foreign load that slows one slice does not move the median
	// of the slices' rates.
	for i := 0; i < 10; i++ {
		ph.ops[i].ns = 20e6
	}
	if got := ph.throughput(); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("throughput with one slow slice = %v, want 2000", got)
	}
	// Failed operations verify no words and still cost their time.
	var short phase
	short.add(0, 1e9)
	short.add(10, 1e9)
	if got := short.throughput(); got != 5 {
		t.Fatalf("throughput of a two-op phase = %v, want 5", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}
