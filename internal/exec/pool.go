package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// Job is one execution of a recognizer on a word under a delivery schedule.
type Job struct {
	// Rec is the recognizer to run. Required.
	Rec core.Recognizer
	// Word labels the ring, one letter per processor, leader first. Required.
	Word lang.Word
	// Engine pins the engine. When nil, Schedule/Seed name a built-in one
	// (see ring.ScheduleNames); an empty Schedule means sequential. A pinned
	// engine may be shared by many jobs — engines are safe for concurrent
	// use — and still benefits from per-worker state reuse when it
	// implements ring.StatefulEngine.
	Engine ring.Engine
	// Schedule names the delivery schedule when Engine is nil.
	Schedule string
	// Seed drives randomized schedules (Schedule == "random").
	Seed int64
	// Check cross-checks the verdict against the language's own membership
	// predicate (core.Check); otherwise the run is core.Run.
	Check bool
	// AllowFaults lets the job run when the engine's delivery guarantee is
	// weaker than the recognizer tolerates, instead of refusing with
	// core.ErrDeliveryNotTolerated (see core.RunOptions.AllowFaults).
	AllowFaults bool
	// RecordTrace records the full event trace of the run. The returned
	// trace is freshly built per run and safe to retain.
	RecordTrace bool
	// Presize, when positive, pre-reserves the worker's reusable run state
	// for a ring of that many processors before the run, so large-ring jobs
	// proceed without growth reallocations (see core.RunOptions.Presize).
	Presize int
	// Prefix, when non-nil, reuses shared-prefix computation across the
	// batch's runs (and any other runs sharing the cache): each job resumes
	// from the deepest checkpoint the cache holds for a prefix of its word
	// (see core.RunOptions.Prefix). Sharing one cache across all jobs of a
	// pool is the intended shape — workers populate it for each other.
	Prefix *core.PrefixCache
}

// Result is the outcome of one Job. Stats is an independent snapshot: it
// never aliases worker state and stays valid after the pool moves on.
type Result struct {
	Verdict ring.Verdict
	Stats   *ring.Stats
	// Faults is the run's fault accounting — nil under reliable schedules,
	// always non-nil under fault-injecting ones (see ring.Result.Faults).
	// Like Stats it is freshly built per run and safe to retain.
	Faults *ring.FaultReport
	// Trace is the recorded event sequence (nil unless Job.RecordTrace).
	Trace ring.Trace
	Err   error
}

// Options configures the package-level RunBatchContext and RunEach calls.
type Options struct {
	// Workers is the number of worker goroutines; values < 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
}

// task is one queued job plus where its result goes.
type task struct {
	ctx     context.Context
	job     Job
	idx     int
	deliver func(idx int, res Result)
	done    *sync.WaitGroup
}

// Pool is a set of persistent worker goroutines, each owning reusable run
// state. A Pool may serve many RunBatch calls (also concurrently); Close
// releases the workers.
type Pool struct {
	workers int
	tasks   chan task
	wg      sync.WaitGroup
}

// NewPool starts a pool. workers < 1 means runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan task)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w := newWorker()
			for t := range p.tasks {
				t.deliver(t.idx, w.run(t.ctx, t.job))
				t.done.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the workers down. The pool must not be used afterwards.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// RunEach executes every job and hands each Result to deliver as soon as its
// worker finishes — completion order, not job order. deliver is called
// concurrently from worker goroutines (and, for jobs canceled before
// dispatch, from the calling goroutine) and must be safe for that; every job
// is delivered exactly once. When ctx is canceled, jobs not yet handed to a
// worker are delivered immediately with an error wrapping ring.ErrCanceled,
// and in-flight runs abort through the engines' own cancellation checks.
// RunEach returns only after every job has been delivered.
func (p *Pool) RunEach(ctx context.Context, jobs []Job, deliver func(idx int, res Result)) {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	var wg sync.WaitGroup
	canceledFrom := len(jobs)
dispatch:
	for i := range jobs {
		if done != nil {
			select {
			case <-done:
				canceledFrom = i
				break dispatch
			default:
			}
		}
		wg.Add(1)
		select {
		case p.tasks <- task{ctx: ctx, job: jobs[i], idx: i, deliver: deliver, done: &wg}:
		case <-done:
			wg.Done()
			canceledFrom = i
			break dispatch
		}
	}
	for i := canceledFrom; i < len(jobs); i++ {
		deliver(i, Result{Err: fmt.Errorf("exec: job not dispatched: %w: %w", ring.ErrCanceled, ctx.Err())})
	}
	wg.Wait()
}

// RunBatchContext executes every job and returns one Result per job, in job
// order. Job errors (including cancellation) land in the corresponding
// Result; the call itself never fails, so a canceled batch still reports
// every word that completed before the cancel.
func (p *Pool) RunBatchContext(ctx context.Context, jobs []Job) []Result {
	out := make([]Result, len(jobs))
	p.RunEach(ctx, jobs, func(i int, r Result) { out[i] = r })
	return out
}

// RunBatch executes every job without cancellation; see RunBatchContext.
func (p *Pool) RunBatch(jobs []Job) []Result {
	//ringvet:ignore ctxflow -- convenience wrapper documented as running without cancellation; RunBatchContext is the ctx-aware form
	return p.RunBatchContext(context.Background(), jobs)
}

// RunBatchContext executes the jobs on a transient pool under ctx.
func RunBatchContext(ctx context.Context, jobs []Job, opts Options) []Result {
	p := NewPool(opts.Workers)
	defer p.Close()
	return p.RunBatchContext(ctx, jobs)
}

// RunEach executes the jobs on a transient pool, streaming each Result to
// deliver in completion order; see Pool.RunEach.
func RunEach(ctx context.Context, jobs []Job, opts Options, deliver func(idx int, res Result)) {
	p := NewPool(opts.Workers)
	defer p.Close()
	p.RunEach(ctx, jobs, deliver)
}

// engineKey identifies a by-name engine in a worker's cache.
type engineKey struct {
	schedule string
	seed     int64
}

// worker is the reusable state one pool goroutine owns: resolved engines and
// one ring.RunState per engine, so repeated jobs under the same schedule
// reuse stats, contexts and scheduler queues run after run.
type worker struct {
	named  map[engineKey]ring.Engine
	states map[ring.Engine]*ring.RunState
	// reuse relabels the previous job's ring in place when consecutive jobs
	// run the same recognizer at the same ring size (core.NodeReuse) — the
	// common shape of a batch, where node construction would otherwise be
	// the dominant per-word allocation.
	reuse *core.NodeReuse
}

func newWorker() *worker {
	return &worker{
		named:  make(map[engineKey]ring.Engine),
		states: make(map[ring.Engine]*ring.RunState),
		reuse:  core.NewNodeReuse(),
	}
}

// engine resolves a job to an engine, caching by-name resolutions.
func (w *worker) engine(job Job) (ring.Engine, error) {
	if job.Engine != nil {
		return job.Engine, nil
	}
	name := job.Schedule
	if name == "" {
		name = "sequential"
	}
	key := engineKey{schedule: name, seed: job.Seed}
	if e, ok := w.named[key]; ok {
		return e, nil
	}
	e, err := ring.NewEngineByName(name, job.Seed)
	if err != nil {
		return nil, err
	}
	w.named[key] = e
	return e, nil
}

// run executes one job with this worker's reusable state.
//
//ring:hotpath guard=TestBatchAllocatesLessThanSerial
func (w *worker) run(ctx context.Context, job Job) Result {
	if job.Rec == nil {
		return Result{Err: fmt.Errorf("exec: job has no recognizer")}
	}
	engine, err := w.engine(job)
	if err != nil {
		return Result{Err: err}
	}
	st := w.states[engine]
	if st == nil {
		st = ring.NewRunState()
		w.states[engine] = st
	}
	opts := core.RunOptions{Engine: engine, State: st, Ctx: ctx, RecordTrace: job.RecordTrace, Presize: job.Presize, Prefix: job.Prefix, Reuse: w.reuse, AllowFaults: job.AllowFaults}
	var res *ring.Result
	if job.Check {
		res, err = core.Check(job.Rec, job.Word, opts)
	} else {
		res, err = core.Run(job.Rec, job.Word, opts)
	}
	if err != nil {
		return Result{Err: err}
	}
	// Snapshot: res.Stats aliases st and the next run on this worker resets
	// it. The trace and fault report do not — both are freshly built per run.
	return Result{Verdict: res.Verdict, Stats: res.Stats.Clone(), Faults: res.Faults, Trace: res.Trace}
}
