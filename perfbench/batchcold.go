package main

import (
	"context"
	"math/rand"

	"ringlang"
	"ringlang/internal/core"
	"ringlang/internal/exec"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// batch-cold: distinct 2^16-letter words through ringlang.Client.Batch
// with no memo and no prefix cache. The engine layers (ring, core, exec,
// lang) do nearly all the work.

type batchCold struct {
	plan *batchPlan
	chk  *checker
}

func newBatchCold(seed int64, seconds int) *batchCold {
	b := &batchCold{plan: newBatchPlan(seed, seconds)}
	b.chk = newChecker(b.wordOf)
	return b
}

// Word ids: warm-up words first, then the timed calls' words, in order.
func (b *batchCold) wordOf(id int) (algoKey, string) {
	for _, ops := range [][]batchOp{b.plan.warm, b.plan.ops} {
		for _, op := range ops {
			if id < len(op.words) {
				return batchAlgos[op.algo], op.words[id]
			}
			id -= len(op.words)
		}
	}
	panic("perfbench: word id out of range")
}

func toWords(ss []string) []ringlang.Word {
	out := make([]ringlang.Word, len(ss))
	for i, s := range ss {
		out[i] = ringlang.WordFromString(s)
	}
	return out
}

// newBatchClients builds one client per algorithm and returns the time spent in
// the constructors; with a tracer each constructor is a span.
func newBatchClients(t *tracer) ([]*ringlang.Client, int64) {
	var ns int64
	clients := make([]*ringlang.Client, len(batchAlgos))
	for i, k := range batchAlgos {
		var err error
		_, d := t.timed("ringlang.new_client", -1, -1, func() {
			clients[i], err = ringlang.NewClient(k.Algorithm, k.Language, ringlang.WithSchedule(k.Schedule), ringlang.WithWorkers(1))
		})
		if err != nil {
			fatalf("new client %v: %v", k, err)
		}
		ns += d
	}
	return clients, ns
}

func closeAll(clients []*ringlang.Client) {
	for _, c := range clients {
		c.Close()
	}
}

// call runs one Batch call and checks every result; it returns the words
// verified, the call's duration, and whether the whole call passed.
func (b *batchCold) call(t *tracer, req int, clients []*ringlang.Client, op batchOp, firstID int, alloc *uint64) (int, int64, bool) {
	words := toWords(op.words)
	var results []ringlang.Result
	var before runtimeCounters
	if alloc != nil {
		before = readRuntime()
	}
	_, ns := t.timed("ringlang.batch", req, -1, func() { results = clients[op.algo].Batch(context.Background(), words) })
	if alloc != nil {
		*alloc += readRuntime().since(before).allocBytes
	}
	ok := 0
	for j, r := range results {
		if r.Err != nil {
			b.chk.fail("batch word %d: %v", firstID+j, r.Err)
			continue
		}
		rep := r.Report
		if rep.ProcessorCount != batchWordLen {
			b.chk.fail("batch word %d: %d processors", firstID+j, rep.ProcessorCount)
			continue
		}
		if b.chk.observe(firstID+j, rep.Member, outcome{rep.Verdict.String(), rep.Bits, rep.Messages}) {
			ok++
		}
	}
	return ok, ns, ok == len(op.words)
}

// setup builds the clients and runs the warm-up calls, which grow every
// worker's run state to the 2^16-letter ring. It returns the clients and
// the time spent inside the program.
func (b *batchCold) setup(t *tracer, r *result) ([]*ringlang.Client, int64) {
	clients, ns := newBatchClients(t)
	id := 0
	for _, op := range b.plan.warm {
		_, d, ok := b.call(nil, -1, clients, op, id, nil)
		r.count(ok)
		ns += d
		id += len(op.words)
	}
	return clients, ns
}

// pass runs the timed calls. With a tracer every call is a span and its
// allocation is added to alloc.
func (b *batchCold) pass(t *tracer, clients []*ringlang.Client, r *result, ph *phase, alloc *uint64) {
	id := 0
	for _, op := range b.plan.warm {
		id += len(op.words)
	}
	for i, op := range b.plan.ops {
		words, ns, ok := b.call(t, i, clients, op, id, alloc)
		r.count(ok)
		ph.add(words, ns)
		id += len(op.words)
	}
}

func runBatchCold(seed int64, seconds int, traced bool) *result {
	b := newBatchCold(seed, seconds)
	r := newResult(b.chk)
	repeats := batchSetupRepeats
	if traced {
		repeats = 1
	}
	var clients []*ringlang.Client
	for i := 0; i < repeats; i++ {
		if clients != nil {
			closeAll(clients)
			release()
		}
		var ns int64
		clients, ns = b.setup(nil, r)
		r.setupNs = append(r.setupNs, float64(ns))
	}
	before := readRuntime()
	b.pass(nil, clients, r, &r.timed, nil)
	r.runtime = readRuntime().since(before)
	closeAll(clients)
	r.coldCheck(seed, 9)
	if !traced {
		return r
	}
	release()
	b.traced(r)
	return r
}

// traced is the traced replay: the Batch calls again with spans, then the
// same words one layer down at a time — exec.Pool, core.Run on reused state,
// and the bare engine — each span parented by the span of the layer above.
func (b *batchCold) traced(r *result) {
	t := newTracer()
	clients, _ := b.setup(t, r)
	var tph phase
	var alloc uint64
	b.pass(t, clients, r, &tph, &alloc)
	closeAll(clients)
	r.tracedPhase = &tph
	r.layer["ringlang.alloc_kb_per_call"] = float64(alloc) / 1024 / float64(len(b.plan.ops))

	recs := make([]core.Recognizer, len(batchAlgos))
	for i, k := range batchAlgos {
		rec, err := core.NewRecognizerByName(k.Algorithm, k.Language)
		if err != nil {
			fatalf("%v", err)
		}
		recs[i] = rec
	}
	batchSpans := t.spanIDs("ringlang.batch")
	replayed := b.plan.ops[:replayCount(len(b.plan.ops))]

	// exec: the same calls through a one-worker pool.
	pool := exec.NewPool(1)
	engine := ring.NewSequentialEngine()
	jobsOf := func(op batchOp) []exec.Job {
		jobs := make([]exec.Job, len(op.words))
		for i, w := range toWords(op.words) {
			jobs[i] = exec.Job{Rec: recs[op.algo], Word: w, Engine: engine}
		}
		return jobs
	}
	for _, op := range b.plan.warm {
		pool.RunBatch(jobsOf(op))
	}
	execSpans := make([]int, len(replayed))
	for i, op := range replayed {
		jobs := jobsOf(op)
		execSpans[i], _ = t.timed("exec.batch", i, batchSpans[i], func() { pool.RunBatch(jobs) })
	}
	pool.Close()

	// core: each word through core.Run on one reused state, as a pool
	// worker runs it.
	st := ring.NewRunState()
	reuse := core.NewNodeReuse()
	for _, op := range b.plan.warm {
		for _, w := range toWords(op.words) {
			if _, err := core.Run(recs[op.algo], w, core.RunOptions{Engine: engine, State: st, Reuse: reuse}); err != nil {
				fatalf("core replay: %v", err)
			}
		}
	}
	var coreSpans []int
	for i, op := range replayed {
		for _, w := range toWords(op.words) {
			var err error
			id, _ := t.timed("core.run", i, execSpans[i], func() {
				_, err = core.Run(recs[op.algo], w, core.RunOptions{Engine: engine, State: st, Reuse: reuse})
			})
			if err != nil {
				fatalf("core replay: %v", err)
			}
			coreSpans = append(coreSpans, id)
		}
	}

	// ring and lang: build the nodes, run the bare engine, snapshot the
	// stats, ask the oracle.
	rst := ring.NewRunState()
	var ringNs, messages int64
	var ringAlloc uint64
	k := 0
	for i, op := range replayed {
		rec := recs[op.algo]
		for _, w := range toWords(op.words) {
			runRing(t, i, coreSpans[k], rec, w, engine, rst, &ringNs, &messages, &ringAlloc)
			k++
		}
	}
	r.layer["ring.ns_per_delivery"] = float64(ringNs) / float64(messages)
	r.layer["ring.alloc_bytes_per_run"] = float64(ringAlloc) / float64(k)
	r.layer["exec.pool_overhead_pct"] = 100 * (t.total("exec.batch") - t.total("core.run")) / t.total("core.run")
	r.tracer = t
}

// runRing replays one word on the bare engine: node construction, the
// delivery loop (RunWith on st when it is non-nil, else a fresh Run), the
// stats snapshot and the language oracle, each its own span under parent.
func runRing(t *tracer, req, parent int, rec core.Recognizer, w lang.Word, engine ring.Engine, st *ring.RunState, ringNs, messages *int64, alloc *uint64) {
	var nodes []ring.Node
	var err error
	t.timed("core.build_nodes", req, parent, func() { nodes, err = rec.NewNodes(w) })
	if err != nil {
		fatalf("ring replay: %v", err)
	}
	cfg := ring.Config{Mode: rec.Mode(), Initiators: ring.LeaderOnly, RequireVerdict: true}
	var res *ring.Result
	before := readRuntime()
	_, ns := t.timed("ring.run", req, parent, func() {
		if se, ok := engine.(ring.StatefulEngine); ok && st != nil {
			res, err = se.RunWith(st, cfg, nodes)
		} else {
			res, err = engine.Run(cfg, nodes)
		}
	})
	*alloc += readRuntime().since(before).allocBytes
	if err != nil {
		fatalf("ring replay: %v", err)
	}
	*ringNs += ns
	*messages += int64(res.Stats.Messages)
	t.timed("ring.stats_clone", req, parent, func() { res.Stats.Clone() })
	var member bool
	t.timed("lang.oracle", req, parent, func() { member = rec.Language().Contains(w) })
	if !verdictMatches(res.Verdict.String(), member) {
		fatalf("ring replay: verdict %v but member=%v", res.Verdict, member)
	}
}

// coldSeed derives the sampling seed of the cold re-runs from the run seed.
func coldSeed(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }
