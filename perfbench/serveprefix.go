package main

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"ringlang"
	"ringlang/internal/core"
	"ringlang/internal/exec"
	"ringlang/internal/lang"
	"ringlang/internal/memo"
	"ringlang/internal/ring"
	"ringlang/internal/server"
)

// serve-prefix: POST /v1/batch with prefixBatch distinct majority words of
// prefixWordLen letters that share 7/8 of a fresh seed word. Every word
// misses the memo, so the memo only takes writes; all but the first word of
// a request resume from the prefix store, whose budget fills in warm-up, so
// checkpoint capture, resume and eviction carry the work.

type servePrefix struct {
	plan *prefixPlan
	chk  *checker
}

// Word ids: word j of warm-up op i is i*prefixBatch+j; the timed ops follow.
func (p *servePrefix) opOf(id int) (prefixOp, int) {
	op, j := id/prefixBatch, id%prefixBatch
	if op < len(p.plan.warm) {
		return p.plan.warm[op], j
	}
	return p.plan.ops[op-len(p.plan.warm)], j
}

func (p *servePrefix) wordOf(id int) (algoKey, string) {
	op, j := p.opOf(id)
	return prefixAlgo, op.words()[j]
}

type batchReply struct {
	Results []struct {
		Index  int          `json:"index"`
		Report *wirePayload `json:"report"`
		Error  string       `json:"error"`
	} `json:"results"`
}

// request sends one batch and checks every word of the reply.
func (p *servePrefix) request(h http.Handler, t *tracer, req int, op prefixOp, firstID int) (int, int64, bool, bool) {
	resp, _, ns := serve(h, t, req, "POST", "/v1/batch", op.body())
	if resp.status < 200 || resp.status > 299 {
		p.chk.fail("request %d: status %d: %s", req, resp.status, resp.body)
		return 0, ns, false, true
	}
	var reply batchReply
	if err := json.Unmarshal(resp.body, &reply); err != nil {
		p.chk.fail("request %d: %v", req, err)
		return 0, ns, false, false
	}
	if len(reply.Results) != prefixBatch {
		p.chk.fail("request %d: %d results", req, len(reply.Results))
		return 0, ns, false, false
	}
	ok := 0
	for j, res := range reply.Results {
		switch {
		case res.Report == nil || res.Error != "":
			p.chk.fail("request %d word %d: %s", req, j, res.Error)
		case res.Index != j || res.Report.Processors != prefixWordLen:
			p.chk.fail("request %d word %d: index %d, %d processors", req, j, res.Index, res.Report.Processors)
		default:
			if p.chk.observe(firstID+j, res.Report.Member, res.Report.outcome()) {
				ok++
			}
		}
	}
	return ok, ns, ok == prefixBatch, false
}

// setup builds the server and runs the warm-up requests, which fill the
// memo and overflow the prefix store's budget.
func (p *servePrefix) setup(r *result) (*server.Server, http.Handler, int64) {
	start := time.Now()
	s := server.New(serverConfig)
	h := s.Handler()
	ns := int64(time.Since(start))
	for i, op := range p.plan.warm {
		_, d, ok, non2xx := p.request(h, nil, -1, op, i*prefixBatch)
		r.count(ok)
		r.non2xx += b2i(non2xx)
		ns += d
	}
	return s, h, ns
}

func (p *servePrefix) pass(h http.Handler, t *tracer, r *result, ph *phase) {
	first := len(p.plan.warm) * prefixBatch
	for i, op := range p.plan.ops {
		words, ns, ok, non2xx := p.request(h, t, i, op, first+i*prefixBatch)
		r.count(ok)
		r.non2xx += b2i(non2xx)
		ph.add(words, ns)
	}
}

func runServePrefix(seed int64, seconds int, traced bool) *result {
	p := &servePrefix{plan: newPrefixPlan(seed, seconds)}
	p.chk = newChecker(p.wordOf)
	r := newResult(p.chk)
	repeats := prefixSetupRepeat
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
		s, h, ns = p.setup(r)
		r.setupNs = append(r.setupNs, float64(ns))
	}
	memoBefore, prefixBefore := s.CacheStats(), s.PrefixStats()
	r.layer["memo.retained_kb_per_entry"] = float64(liveHeap()-base) / 1024 / float64(memoBefore.Entries)
	r.detail["memo_entries_after_warmup"] = memoBefore.Entries
	r.detail["prefix_evictions_after_warmup"] = prefixBefore.Evictions
	before := readRuntime()
	p.pass(h, nil, r, &r.timed)
	r.runtime = readRuntime().since(before)
	memoAfter, prefixAfter := s.CacheStats(), s.PrefixStats()
	s.Close()
	hits, misses := memoAfter.Hits-memoBefore.Hits, memoAfter.Misses-memoBefore.Misses
	r.layer["memo.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	r.layer["memo.evictions"] = float64(memoAfter.Evictions - memoBefore.Evictions)
	r.layer["memo.prefix_partial_ratio"] = partialRatio(prefixBefore, prefixAfter)
	r.layer["memo.prefix_evictions"] = float64(prefixAfter.Evictions - prefixBefore.Evictions)
	r.coldCheck(seed, 24)
	if !traced {
		return r
	}
	release()
	p.traced(r)
	return r
}

// traced replays serve-prefix: the requests again with spans; then the
// server's batch path (memo Get per word, Client.Batch on the misses, memo
// Put per report) on a mirror memo and prefix store; then the same words
// through a one-worker exec.Pool and through core.Run on reused state, each
// with its own mirror prefix store fed the same sequence.
func (p *servePrefix) traced(r *result) {
	t := newTracer()
	s, h, _ := p.setup(r)
	var tph phase
	p.pass(h, t, r, &tph)
	s.Close()
	r.tracedPhase = &tph
	serveSpans := t.spanIDs("server.serve")

	// memo + ringlang mirror.
	cache := memo.New[*ringlang.Report](server.DefaultCacheCapacity, 0)
	var client *ringlang.Client
	var err error
	t.timed("ringlang.new_client", -1, -1, func() {
		client, err = ringlang.NewClient(prefixAlgo.Algorithm, prefixAlgo.Language, ringlang.WithSchedule(prefixAlgo.Schedule),
			ringlang.WithWorkers(1), ringlang.WithSharedPrefixCache(ringlang.NewPrefixCache(server.DefaultPrefixCacheBytes)))
	})
	if err != nil {
		fatalf("new client: %v", err)
	}
	defer client.Close()
	var alloc uint64
	replayed := p.plan.ops[:replayCount(len(p.plan.ops))]
	batchSpans := make([]int, len(replayed))
	viaMemo := func(tt *tracer, req, parent int, op prefixOp) int {
		var missWords []ringlang.Word
		var missKeys []memo.Key
		for _, w := range op.words() {
			key := memo.Key{Algorithm: prefixAlgo.Algorithm, Language: prefixAlgo.Language, Schedule: prefixAlgo.Schedule, Word: w}
			var hit bool
			tt.timed("memo.get", req, parent, func() { _, hit = cache.Get(key) })
			if !hit {
				missWords = append(missWords, ringlang.WordFromString(w))
				missKeys = append(missKeys, key)
			}
		}
		var results []ringlang.Result
		before := readRuntime()
		span, _ := tt.timed("ringlang.batch", req, parent, func() { results = client.Batch(context.Background(), missWords) })
		if tt != nil {
			alloc += readRuntime().since(before).allocBytes
		}
		for j, res := range results {
			if res.Err != nil {
				fatalf("memo replay: %v", res.Err)
			}
			tt.timed("memo.put", req, parent, func() { cache.Put(missKeys[j], res.Report) })
		}
		return span
	}
	for _, op := range p.plan.warm {
		viaMemo(nil, -1, -1, op)
	}
	for i, op := range replayed {
		batchSpans[i] = viaMemo(t, i, serveSpans[i], op)
	}
	r.layer["ringlang.alloc_kb_per_call"] = float64(alloc) / 1024 / float64(len(replayed))

	// exec: the same words through a one-worker pool.
	rec, err := core.NewRecognizerByName(prefixAlgo.Algorithm, prefixAlgo.Language)
	if err != nil {
		fatalf("%v", err)
	}
	engine, err := ring.NewEngineByName(prefixAlgo.Schedule, 0)
	if err != nil {
		fatalf("%v", err)
	}
	pool := exec.NewPool(1)
	execPrefix := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
	jobsOf := func(op prefixOp) []exec.Job {
		words := op.words()
		jobs := make([]exec.Job, len(words))
		for i, w := range words {
			jobs[i] = exec.Job{Rec: rec, Word: lang.WordFromString(w), Engine: engine, Prefix: execPrefix}
		}
		return jobs
	}
	for _, op := range p.plan.warm {
		pool.RunBatch(jobsOf(op))
	}
	execSpans := make([]int, len(replayed))
	for i, op := range replayed {
		jobs := jobsOf(op)
		execSpans[i], _ = t.timed("exec.batch", i, batchSpans[i], func() { pool.RunBatch(jobs) })
	}
	pool.Close()

	// core: each word through core.Run on one reused state, as a pool
	// worker runs it; then the oracle on the same word.
	st := ring.NewRunState()
	reuse := core.NewNodeReuse()
	corePrefix := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
	runCore := func(tt *tracer, req, parent, oracleParent int, op prefixOp) {
		for _, w := range op.words() {
			word := lang.WordFromString(w)
			var err error
			tt.timed("core.run", req, parent, func() {
				_, err = core.Run(rec, word, core.RunOptions{Engine: engine, State: st, Reuse: reuse, Prefix: corePrefix})
			})
			if err != nil {
				fatalf("core replay: %v", err)
			}
			tt.timed("lang.oracle", req, oracleParent, func() { rec.Language().Contains(word) })
		}
	}
	for _, op := range p.plan.warm {
		runCore(nil, -1, -1, -1, op)
	}
	for i, op := range replayed {
		runCore(t, i, execSpans[i], batchSpans[i], op)
	}
	r.layer["exec.pool_overhead_pct"] = 100 * (t.total("exec.batch") - t.total("core.run")) / t.total("core.run")
	r.layer["server.non2xx"] = float64(r.non2xx)
	r.tracer = t
}
