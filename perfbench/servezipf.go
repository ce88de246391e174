package main

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"ringlang"
	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/memo"
	"ringlang/internal/ring"
	"ringlang/internal/server"
)

// serve-zipf: POST /v1/recognize with fixed-length words drawn Zipf from a
// working set 4x the memo's capacity. Most requests are memo hits that
// touch no engine; misses run short rings where per-request overheads
// dominate, and evictions make memo writes run beside its reads.

type serveZipf struct {
	plan *zipfPlan
	chk  *checker
}

var serverConfig = server.Config{Workers: 1}

func (z *serveZipf) wordOf(id int) (algoKey, string) {
	it := z.plan.items[id]
	return zipfAlgos[it.algo], it.word
}

// request sends one working-set item and checks the reply.
func (z *serveZipf) request(h http.Handler, t *tracer, req, item int) (bool, int64, int, bool) {
	resp, span, ns := serve(h, t, req, "POST", "/v1/recognize", z.plan.items[item].body)
	if resp.status < 200 || resp.status > 299 {
		z.chk.fail("request %d: status %d: %s", req, resp.status, resp.body)
		return false, ns, span, true
	}
	var p wirePayload
	if err := json.Unmarshal(resp.body, &p); err != nil {
		z.chk.fail("request %d: %v", req, err)
		return false, ns, span, false
	}
	if p.Processors != zipfWordLen {
		z.chk.fail("request %d: %d processors", req, p.Processors)
		return false, ns, span, false
	}
	return z.chk.observe(item, p.Member, p.outcome()), ns, span, false
}

// setup builds the server and runs the warm-up requests, which fill the
// memo and the prefix store to capacity. It returns the time spent inside
// the program.
func (z *serveZipf) setup(r *result) (*server.Server, http.Handler, int64) {
	start := time.Now()
	s := server.New(serverConfig)
	h := s.Handler()
	ns := int64(time.Since(start))
	for _, item := range z.plan.warm {
		ok, d, _, non2xx := z.request(h, nil, -1, item)
		r.count(ok)
		r.non2xx += b2i(non2xx)
		ns += d
	}
	return s, h, ns
}

// pass sends the timed requests.
func (z *serveZipf) pass(h http.Handler, t *tracer, r *result, ph *phase) {
	for i, item := range z.plan.ops {
		ok, ns, _, non2xx := z.request(h, t, i, item)
		r.count(ok)
		r.non2xx += b2i(non2xx)
		ph.add(b2i(ok), ns)
	}
}

func runServeZipf(seed int64, seconds int, traced bool) *result {
	z := &serveZipf{plan: newZipfPlan(seed, seconds)}
	z.chk = newChecker(z.wordOf)
	r := newResult(z.chk)
	repeats := zipfSetupRepeats
	if traced {
		repeats = 1
	}
	var s *server.Server
	var h http.Handler
	var base uint64
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.Close()
			s, h = nil, nil
			release()
		}
		base = liveHeap()
		var ns int64
		s, h, ns = z.setup(r)
		r.setupNs = append(r.setupNs, float64(ns))
	}
	memoBefore, prefixBefore := s.CacheStats(), s.PrefixStats()
	r.layer["memo.retained_kb_per_entry"] = float64(liveHeap()-base) / 1024 / float64(memoBefore.Entries)
	r.detail["memo_entries_after_warmup"] = memoBefore.Entries
	r.detail["prefix_evictions_after_warmup"] = prefixBefore.Evictions
	before := readRuntime()
	z.pass(h, nil, r, &r.timed)
	r.runtime = readRuntime().since(before)
	memoAfter, prefixAfter := s.CacheStats(), s.PrefixStats()
	s.Close()
	hits, misses := memoAfter.Hits-memoBefore.Hits, memoAfter.Misses-memoBefore.Misses
	hitRatio := float64(hits) / float64(hits+misses)
	r.detail["memo_hit_ratio"] = hitRatio
	r.layer["memo.hit_ratio"] = hitRatio
	r.layer["memo.evictions"] = float64(memoAfter.Evictions - memoBefore.Evictions)
	r.layer["memo.prefix_partial_ratio"] = partialRatio(prefixBefore, prefixAfter)
	r.layer["memo.prefix_evictions"] = float64(prefixAfter.Evictions - prefixBefore.Evictions)
	r.coldCheck(seed, 64)
	if !traced {
		return r
	}
	release()
	z.traced(r)
	return r
}

// partialRatio is the share of prefix-store lookups between two snapshots
// that resumed from a stored prefix shorter than the word.
func partialRatio(before, after memo.PrefixStats) float64 {
	partial := after.PartialHits - before.PartialHits
	total := partial + after.Hits - before.Hits + after.Misses - before.Misses
	if total == 0 {
		return 0
	}
	return float64(partial) / float64(total)
}

// zipfMiss is one request the memo replay had to compute.
type zipfMiss struct {
	req, item, span int
}

// traced replays serve-zipf: the requests again with spans, then the memo
// path the server takes (Peek, then Do around Client.Recognize) on a mirror
// memo and prefix store fed the same sequence, then each miss through
// core.Run and the bare engine.
func (z *serveZipf) traced(r *result) {
	t := newTracer()
	s, h, _ := z.setup(r)
	var tph phase
	z.pass(h, t, r, &tph)
	s.Close()
	r.tracedPhase = &tph
	serveSpans := t.spanIDs("server.serve")

	// memo + ringlang mirror.
	cache := memo.New[*ringlang.Report](server.DefaultCacheCapacity, 0)
	prefix := ringlang.NewPrefixCache(server.DefaultPrefixCacheBytes)
	clients := make([]*ringlang.Client, len(zipfAlgos))
	for i, k := range zipfAlgos {
		var err error
		t.timed("ringlang.new_client", -1, -1, func() {
			clients[i], err = ringlang.NewClient(k.Algorithm, k.Language, ringlang.WithSchedule(k.Schedule),
				ringlang.WithWorkers(1), ringlang.WithSharedPrefixCache(prefix))
		})
		if err != nil {
			fatalf("new client %v: %v", k, err)
		}
	}
	defer closeAll(clients)
	var alloc uint64
	var calls int
	lookup := func(tt *tracer, req, parent, item int) (missSpan int, missed bool) {
		it := z.plan.items[item]
		k := zipfAlgos[it.algo]
		key := memo.Key{Algorithm: k.Algorithm, Language: k.Language, Schedule: k.Schedule, Word: it.word}
		var hit bool
		tt.timed("memo.peek", req, parent, func() { _, hit = cache.Peek(key) })
		if hit {
			return -1, false
		}
		missSpan = -1
		tt.timed("memo.do", req, parent, func() {
			_, _, err := cache.Do(key, func() (*ringlang.Report, error) {
				word := ringlang.WordFromString(it.word)
				var rep *ringlang.Report
				var err error
				before := readRuntime()
				missSpan, _ = tt.timed("ringlang.recognize", req, tt.lastID(), func() {
					rep, err = clients[it.algo].Recognize(context.Background(), word)
				})
				if tt != nil {
					alloc += readRuntime().since(before).allocBytes
					calls++
				}
				return rep, err
			})
			if err != nil {
				fatalf("memo replay: %v", err)
			}
		})
		return missSpan, true
	}
	var warmMisses []int
	for _, item := range z.plan.warm {
		if _, missed := lookup(nil, -1, -1, item); missed {
			warmMisses = append(warmMisses, item)
		}
	}
	var misses []zipfMiss
	for i, item := range z.plan.ops[:replayCount(len(z.plan.ops))] {
		if span, missed := lookup(t, i, serveSpans[i], item); missed {
			misses = append(misses, zipfMiss{req: i, item: item, span: span})
		}
	}
	r.layer["ringlang.alloc_kb_per_call"] = float64(alloc) / 1024 / float64(max(calls, 1))

	// core: every miss through core.Run with its own mirror prefix store,
	// as Client.Recognize calls it.
	recs := make([]core.Recognizer, len(zipfAlgos))
	engines := make([]ring.Engine, len(zipfAlgos))
	for i, k := range zipfAlgos {
		var err error
		if recs[i], err = core.NewRecognizerByName(k.Algorithm, k.Language); err != nil {
			fatalf("%v", err)
		}
		if engines[i], err = ring.NewEngineByName(k.Schedule, 0); err != nil {
			fatalf("%v", err)
		}
	}
	corePrefix := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
	runCore := func(tt *tracer, req, parent, item int) int {
		it := z.plan.items[item]
		var err error
		id, _ := tt.timed("core.run", req, parent, func() {
			_, err = core.Run(recs[it.algo], lang.WordFromString(it.word), core.RunOptions{Engine: engines[it.algo], Prefix: corePrefix})
		})
		if err != nil {
			fatalf("core replay: %v", err)
		}
		return id
	}
	for _, item := range warmMisses {
		runCore(nil, -1, -1, item)
	}
	coreSpans := make([]int, len(misses))
	for i, m := range misses {
		coreSpans[i] = runCore(t, m.req, m.span, m.item)
	}

	// ring and lang: each miss cold on the bare engine.
	var ringNs, messages int64
	var ringAlloc uint64
	for i, m := range misses {
		it := z.plan.items[m.item]
		runRing(t, m.req, coreSpans[i], recs[it.algo], lang.WordFromString(it.word), engines[it.algo], nil, &ringNs, &messages, &ringAlloc)
	}
	r.layer["ring.ns_per_delivery"] = float64(ringNs) / float64(max(messages, 1))
	r.layer["ring.alloc_bytes_per_run"] = float64(ringAlloc) / float64(max(len(misses), 1))
	r.layer["server.non2xx"] = float64(r.non2xx)
	r.tracer = t
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
