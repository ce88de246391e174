package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"ringlang/internal/memo"
	"ringlang/internal/server"
)

func TestSameSeedSameOperationSequence(t *testing.T) {
	if newBatchPlan(7, 1).digest() != newBatchPlan(7, 1).digest() {
		t.Error("batch-cold: same seed, different operations")
	}
	if newZipfPlan(7, 1).digest() != newZipfPlan(7, 1).digest() {
		t.Error("serve-zipf: same seed, different operations")
	}
	if newPrefixPlan(7, 1).digest() != newPrefixPlan(7, 1).digest() {
		t.Error("serve-prefix: same seed, different operations")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	if newBatchPlan(7, 1).digest() == newBatchPlan(8, 1).digest() {
		t.Error("batch-cold: seeds 7 and 8 give the same operations")
	}
	if newZipfPlan(7, 1).digest() == newZipfPlan(8, 1).digest() {
		t.Error("serve-zipf: seeds 7 and 8 give the same operations")
	}
	if newPrefixPlan(7, 1).digest() == newPrefixPlan(8, 1).digest() {
		t.Error("serve-prefix: seeds 7 and 8 give the same operations")
	}
}

func TestOperationCountIsFixedBySeconds(t *testing.T) {
	if got := len(newBatchPlan(1, 2).ops); got != opsFor(batchCallsPerSec, 2) {
		t.Errorf("batch-cold: %d calls", got)
	}
	if got := len(newZipfPlan(1, 2).ops); got != opsFor(zipfReqPerSec, 2) {
		t.Errorf("serve-zipf: %d requests", got)
	}
	if got := len(newPrefixPlan(1, 2).ops); got != opsFor(prefixReqPerSec, 2) {
		t.Errorf("serve-prefix: %d requests", got)
	}
}

func TestColdWorkloadWordsAreDistinct(t *testing.T) {
	seen := make(map[string]bool)
	bp := newBatchPlan(3, 1)
	for _, op := range append(bp.warm, bp.ops...) {
		for _, w := range op.words {
			if len(w) != batchWordLen || seen[w] {
				t.Fatalf("batch-cold: repeated or mis-sized word")
			}
			seen[w] = true
		}
	}
	seen = make(map[string]bool)
	pp := newPrefixPlan(3, 1)
	for _, op := range append(pp.warm, pp.ops...) {
		words := op.words()
		for _, w := range words {
			if len(w) != prefixWordLen || seen[w] {
				t.Fatalf("serve-prefix: repeated or mis-sized word")
			}
			if w[:prefixShared] != op.seed[:prefixShared] || w[prefixShared] == op.seed[prefixShared] {
				t.Fatalf("serve-prefix: word does not share exactly %d letters with its seed word", prefixShared)
			}
			seen[w] = true
		}
	}
}

// zipfKey is the memo key the server files an item under.
func zipfKey(it zipfItem) memo.Key {
	k := zipfAlgos[it.algo]
	return memo.Key{Algorithm: k.Algorithm, Language: k.Language, Schedule: k.Schedule, Word: it.word}
}

// The hit ratio of serve-zipf decides which latency mode each reported
// percentile reads: p50 must sit among hits and the p99 tail among misses,
// each at least five points from the boundary, or a small shift in the mix
// would flip a percentile between modes; p90 is held clear too. Replaying
// the plan through a memo of the server's size gives the exact ratio the
// server sees.
func TestZipfPercentilesStayOffTheHitMissBoundary(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := newZipfPlan(seed, 5)
		c := memo.New[struct{}](server.DefaultCacheCapacity, 0)
		for _, i := range p.warm {
			c.Put(zipfKey(p.items[i]), struct{}{})
		}
		hits := 0
		for _, i := range p.ops {
			if _, ok := c.Get(zipfKey(p.items[i])); ok {
				hits++
			} else {
				c.Put(zipfKey(p.items[i]), struct{}{})
			}
		}
		h := 100 * float64(hits) / float64(len(p.ops))
		for _, pct := range []float64{50, 90, 99} {
			if d := h - pct; d > -5 && d < 5 {
				t.Errorf("seed %d: hit ratio %.1f%% is within 5 points of p%v", seed, h, pct)
			}
		}
	}
}

func TestWarmupFillsTheCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full warm-ups")
	}
	z := &serveZipf{plan: newZipfPlan(5, 1)}
	z.chk = newChecker(z.wordOf)
	r := newResult(z.chk)
	s, _, _ := z.setup(r)
	if st := s.CacheStats(); st.Entries != server.DefaultCacheCapacity {
		t.Errorf("serve-zipf: %d memo entries after warm-up, want %d", st.Entries, server.DefaultCacheCapacity)
	}
	if ps := s.PrefixStats(); ps.Evictions == 0 {
		t.Errorf("serve-zipf: prefix store never evicted in warm-up: %+v", ps)
	}
	s.Close()

	p := &servePrefix{plan: newPrefixPlan(5, 1)}
	p.chk = newChecker(p.wordOf)
	r2 := newResult(p.chk)
	s, _, _ = p.setup(r2)
	if st := s.CacheStats(); st.Entries != server.DefaultCacheCapacity {
		t.Errorf("serve-prefix: %d memo entries after warm-up, want %d", st.Entries, server.DefaultCacheCapacity)
	}
	if ps := s.PrefixStats(); ps.Evictions == 0 {
		t.Errorf("serve-prefix: prefix store never evicted in warm-up: %+v", ps)
	}
	s.Close()
	if r.failed+r2.failed != 0 {
		t.Errorf("warm-up failures: %v %v", z.chk.failures, p.chk.failures)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program runs
// and reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: %s/%s in BENCHMARK.json, %s/%s in the program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}
