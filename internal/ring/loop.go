package ring

import "fmt"

// loopState is the mutable per-run state of the shared event loop: verdict,
// accounting, trace. It implements verdictSink, so processor contexts carry a
// plain pointer to it instead of one closure per processor — a reused
// loopState makes the loop allocation-free apart from the algorithm's own
// sends.
type loopState struct {
	cfg     Config
	stats   Stats
	trace   Trace
	seq     int
	verdict Verdict
}

// reset prepares the state for a fresh run.
func (lp *loopState) reset(cfg Config, n int) {
	lp.cfg = cfg
	lp.stats.reset(n)
	lp.trace = nil
	lp.seq = 0
	lp.verdict = VerdictNone
}

// decide implements verdictSink for the single-goroutine loop.
//
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func (lp *loopState) decide(proc int, v Verdict) error {
	if lp.verdict != VerdictNone {
		return ErrAlreadyDecided
	}
	lp.verdict = v
	if lp.cfg.RecordTrace {
		//ringvet:ignore hotpathalloc -- trace recording is opt-in and excluded from the alloc budget
		lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventVerdict, Processor: proc, Verdict: v})
		lp.seq++
	}
	return nil
}

// runLoop is the single event loop behind every scheduler-backed engine. It
// owns everything the seed engines used to triplicate: processor contexts,
// send validation and routing, stats accounting, trace recording, the start
// phase, the message budget and termination. The scheduler decides nothing
// but the delivery order.
//
// st may be nil (a transient state is used) or a caller-owned RunState whose
// allocations are reused across runs; see RunState for the aliasing rules.
//
// Trace recording is gated at every site so a run with Config.RecordTrace
// off never constructs an Event.
//
//ring:deterministic
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard,TestLoopAllocatesLessThanSeedLoop
func runLoop(cfg Config, nodes []Node, sched Scheduler, st *RunState) (*Result, error) {
	return runLoopFrom(cfg, nodes, sched, st, CheckpointRun{})
}

// runLoopFrom is runLoop extended with prefix checkpointing: run.Resume
// skips the start phase and reinstates a captured execution, and
// run.CaptureAfter freezes checkpoints at the requested delivery counts. A
// zero run is exactly runLoop; the hot delivery loop pays one integer
// compare for the capture boundary and nothing for resume.
//
//ring:deterministic
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard,TestLoopAllocatesLessThanSeedLoop,TestCheckpointResumeAllocRegressionGuard
func runLoopFrom(cfg Config, nodes []Node, sched Scheduler, st *RunState, run CheckpointRun) (*Result, error) {
	cfg, err := cfg.normalize(len(nodes))
	if err != nil {
		return nil, err
	}
	var ck checkpointableScheduler
	if run.Resume != nil || (run.OnCapture != nil && len(run.CaptureAfter) > 0) {
		var ok bool
		if ck, ok = sched.(checkpointableScheduler); !ok {
			return nil, fmt.Errorf("%w: schedule %q cannot capture or resume checkpoints", ErrNotPrefixStable, sched.Name())
		}
	}
	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		if cfg.Ctx.Err() != nil {
			return nil, canceledRun(cfg.Ctx)
		}
		ctxDone = cfg.Ctx.Done()
	}
	if st == nil {
		st = &RunState{}
	}
	n := len(nodes)
	lp := &st.loop
	lp.reset(cfg, n)
	contexts := st.resetContexts(n)
	for i := range contexts {
		// Field-wise reset keeps each context's scratch writer (and its grown
		// buffer) alive across the runs of a reused RunState.
		contexts[i].isLeader = i == LeaderIndex
		contexts[i].proc = i
		contexts[i].sink = lp
	}

	sched.Reset(numLinks(n))
	dispatch := func(fromProc int, sends []Send) error {
		for _, s := range sends {
			to, arrival, err := routeSend(cfg, fromProc, s, n)
			if err != nil {
				return err
			}
			if cfg.RecordTrace {
				// The trace retains payloads beyond the delivery, but a payload
				// built on a Context scratch writer is only valid until the
				// sender's next message — snapshot it.
				s.Payload = s.Payload.Clone()
			}
			lp.stats.record(to, arrival, s.Payload)
			if cfg.RecordTrace {
				//ringvet:ignore hotpathalloc -- trace recording is opt-in and excluded from the alloc budget
				lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventSend, Processor: fromProc, Dir: s.Dir, Payload: s.Payload})
				lp.seq++
			}
			sched.Push(linkIndex(to, arrival), Delivery{To: to, From: arrival, Payload: s.Payload})
		}
		return nil
	}

	delivered := 0
	if run.Resume != nil {
		// Resume: the start phase (and the checkpointed prefix of the
		// delivery loop) already happened in the captured execution; install
		// its state instead of replaying it.
		if err := restoreCheckpoint(run.Resume, cfg, nodes, ck, lp); err != nil {
			return nil, err
		}
		delivered = run.Resume.delivered
	} else {
		// Start phase.
		for i := 0; i < n; i++ {
			if cfg.Initiators == LeaderOnly && i != LeaderIndex {
				continue
			}
			if cfg.RecordTrace {
				//ringvet:ignore hotpathalloc -- trace recording is opt-in and excluded from the alloc budget
				lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventStart, Processor: i})
				lp.seq++
			}
			//ringvet:ignore allocflow -- Start runs once per node at run begin, before the delivery loop
			sends, err := nodes[i].Start(&contexts[i])
			if err != nil {
				return nil, fmt.Errorf("ring: start of processor %d: %w", i, err)
			}
			if err := dispatch(i, sends); err != nil {
				return nil, err
			}
			if lp.verdict != VerdictNone {
				break
			}
		}
	}

	// Capture plan: stopAt is the next boundary (or -1, which delivered
	// never equals), so the hot loop below pays a single compare per
	// delivery whether or not captures are requested.
	capAfter := run.CaptureAfter
	if run.OnCapture == nil {
		capAfter = nil
	}
	stopAt := -1
	for len(capAfter) > 0 && (capAfter[0] <= delivered || capAfter[0] < 1) {
		capAfter = capAfter[1:]
	}
	if len(capAfter) > 0 {
		stopAt = capAfter[0]
	}

	// Delivery loop. Cancellation is polled every ctxCheckInterval deliveries:
	// a non-blocking receive on a prefetched Done channel, so runs with a
	// context pay no allocation and runs without one pay a nil test.
	for lp.verdict == VerdictNone {
		if ctxDone != nil && delivered&(ctxCheckInterval-1) == 0 {
			select {
			case <-ctxDone:
				return nil, canceledRun(cfg.Ctx)
			default:
			}
		}
		d, ok := sched.Next()
		if !ok {
			break
		}
		if delivered >= cfg.MaxMessages {
			return nil, fmt.Errorf("%w: %d messages", ErrMessageBudgetExceeded, delivered)
		}
		delivered++
		if cfg.RecordTrace {
			// A payload popped from the FIFO arena is recycled a couple of
			// deliveries later; the trace outlives that, so snapshot it.
			//ringvet:ignore hotpathalloc -- trace recording is opt-in and excluded from the alloc budget
			lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventReceive, Processor: d.To, Dir: d.From, Payload: d.Payload.Clone()})
			lp.seq++
		}
		sends, err := nodes[d.To].Receive(&contexts[d.To], d.From, d.Payload)
		if err != nil {
			return nil, fmt.Errorf("ring: receive at processor %d: %w", d.To, err)
		}
		if lp.verdict != VerdictNone {
			// The leader decided while processing this delivery; the paper's
			// model terminates the execution at that point.
			break
		}
		if err := dispatch(d.To, sends); err != nil {
			return nil, err
		}
		if delivered == stopAt {
			// The delivery and its dispatches are complete and no verdict
			// fired: freeze the undecided state between deliveries.
			cp, err := captureCheckpoint(ck, lp, nodes, delivered)
			if err != nil {
				return nil, err
			}
			run.OnCapture(cp)
			stopAt = -1
			for capAfter = capAfter[1:]; len(capAfter) > 0; capAfter = capAfter[1:] {
				if capAfter[0] > delivered {
					stopAt = capAfter[0]
					break
				}
			}
		}
	}

	if cfg.RequireVerdict && lp.verdict == VerdictNone {
		return nil, ErrNoVerdict
	}
	res := &Result{Verdict: lp.verdict, Stats: &lp.stats, Trace: lp.trace}
	if fr, ok := sched.(faultReporter); ok {
		// Fault-injecting schedules attach their accounting; the snapshot is
		// independent of the scheduler, which the next run resets.
		//ringvet:ignore hotpathalloc -- once per completed run, after the delivery loop; reliable schedules skip it entirely
		res.Faults = fr.takeFaultReport()
	}
	return res, nil
}

// ScheduledEngine is the one engine type of the package: the shared event
// loop driven by a fresh scheduler per run, so one engine value stays
// reusable and goroutine-safe no matter how much state its schedule keeps.
// Every built-in schedule is a ScheduledEngine with a fixed factory.
type ScheduledEngine struct {
	name      string
	factory   func() Scheduler
	guarantee DeliveryGuarantee
}

// NewScheduledEngine wraps a scheduler factory as an Engine. This is the
// extension point for schedules the built-in names do not cover: implement
// Scheduler, wrap it here, and every recognizer, experiment and test can run
// under it. The engine upholds the exactly-once model; the fault schedules
// with weaker guarantees are reached through their own constructors.
func NewScheduledEngine(name string, factory func() Scheduler) *ScheduledEngine {
	return &ScheduledEngine{name: name, factory: factory}
}

var _ StatefulEngine = (*ScheduledEngine)(nil)

// Name implements Engine.
func (e *ScheduledEngine) Name() string { return e.name }

// Run implements Engine.
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *ScheduledEngine) Run(cfg Config, nodes []Node) (*Result, error) {
	return runLoop(cfg, nodes, e.factory(), nil)
}

// RunWith implements StatefulEngine. The scheduler is cached in st and
// reset on every run (a seeded one re-seeds), so a reused scheduler produces
// the identical delivery order each run.
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *ScheduledEngine) RunWith(st *RunState, cfg Config, nodes []Node) (*Result, error) {
	return runLoop(cfg, nodes, st.scheduler(e, e.factory), st)
}

var _ CheckpointEngine = (*ScheduledEngine)(nil)

// RunCheckpointed implements CheckpointEngine. It fails with
// ErrNotPrefixStable when the engine's scheduler cannot checkpoint (capture
// or resume under a schedule that is not prefix-stable).
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *ScheduledEngine) RunCheckpointed(st *RunState, cfg Config, nodes []Node, run CheckpointRun) (*Result, error) {
	if st == nil {
		st = &RunState{}
	}
	return runLoopFrom(cfg, nodes, st.scheduler(e, e.factory), st, run)
}

// sequentialEngine is shared by every NewSequentialEngine call: engines are
// immutable, and one identity lets a reused RunState keep its cached
// scheduler across callers that build the default engine per run.
var sequentialEngine = lookupSchedule("sequential").seededEngine(0)

// NewSequentialEngine returns the deterministic engine: the loop under a
// global-FIFO scheduler. FIFO delivery is a legal asynchronous schedule; for
// the paper's unidirectional leader-initiated algorithms it is exactly the
// unique execution described in Section 2.
func NewSequentialEngine() *ScheduledEngine { return sequentialEngine }

// NewRandomOrderEngine returns an engine delivering the head of a uniformly
// random non-empty link, seeded so the order is reproducible. Every such
// order is a legal asynchronous execution; running an algorithm under many
// seeds is how the test suite checks schedule-independence.
func NewRandomOrderEngine(seed int64) *ScheduledEngine {
	return lookupSchedule("random").seededEngine(seed)
}

// NewRoundRobinEngine returns an engine delivering round-robin by link.
func NewRoundRobinEngine() *ScheduledEngine { return lookupSchedule("round-robin").seededEngine(0) }

// NewAdversarialEngine returns an engine running the bounded-delay adversary
// (see adversarialScheduler). Bounds below 1 fall back to
// DefaultAdversarialBound.
func NewAdversarialEngine(bound int) *ScheduledEngine {
	return lookupSchedule("adversarial").engine(func() Scheduler { return NewAdversarialScheduler(bound) })
}
