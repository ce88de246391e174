package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported tail is the highest
// percentile that still has at least this many samples beyond it.
const minBeyond = 10

// quantile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// ascending samples: the value at rank ⌈p·n/100⌉.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankFor(len(sorted), p)-1]
}

// rankFor is the 1-based nearest rank of the p-th percentile of n samples.
func rankFor(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail applies the percentile rule to ascending samples. It returns the
// value of the p-th percentile when at least minBeyond samples lie beyond
// it, and otherwise the highest percentile that has minBeyond samples
// beyond it; used is the percentile actually reported. With n ≤ minBeyond
// samples no percentile qualifies and the median stands in.
func tail(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, p
	}
	r := rankFor(n, p)
	if n-r < minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		return quantile(sorted, 50), 50
	}
	if r == rankFor(n, p) {
		return sorted[r-1], p
	}
	return sorted[r-1], 100 * float64(r) / float64(n)
}

// median is the midpoint median of samples (unsorted input is fine).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// opSample is one timed operation of the fixed-work phase: how many words
// it verified and how long the timed call into the program took.
type opSample struct {
	words int
	ns    int64
}

// phase collects the timed operations of the fixed-work phase. Warm-up and
// verification never add to it, so throughput covers that phase alone.
type phase struct {
	ops []opSample
}

func (p *phase) add(words int, ns int64) { p.ops = append(p.ops, opSample{words, ns}) }

// throughputChunks is how many consecutive slices the fixed-work phase is
// cut into; throughput is their median rate, so a burst of foreign load
// that lands in one slice does not move the figure.
const throughputChunks = 9

// throughput is the median, over throughputChunks consecutive equal slices
// of the phase's operations, of words verified per second of timed calls.
// A phase with fewer operations than slices is taken whole.
func (p *phase) throughput() float64 {
	k := throughputChunks
	if len(p.ops) < k {
		k = 1
	}
	rates := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		lo, hi := c*len(p.ops)/k, (c+1)*len(p.ops)/k
		words, ns := 0, int64(0)
		for _, op := range p.ops[lo:hi] {
			words += op.words
			ns += op.ns
		}
		if ns > 0 {
			rates = append(rates, float64(words)/(float64(ns)/1e9))
		}
	}
	return median(rates)
}

// words is the total number of verified words of the phase.
func (p *phase) words() int {
	n := 0
	for _, op := range p.ops {
		n += op.words
	}
	return n
}

// latenciesMs returns the phase's per-operation latencies in milliseconds,
// ascending.
func (p *phase) latenciesMs() []float64 {
	out := make([]float64, len(p.ops))
	for i, op := range p.ops {
		out[i] = float64(op.ns) / 1e6
	}
	sort.Float64s(out)
	return out
}
