// Package ring implements the distributed ring-with-a-leader model of
// Mansour & Zaks: n processors arranged in a ring, processor 1 being the
// leader, communicating only over the ring edges with message-driven
// algorithms. The package is input-agnostic — algorithms construct their own
// per-processor Node values (closing over whatever input each processor
// holds) and hand them to an Engine.
//
// The paper's bounds hold under every legal asynchronous schedule, so the
// schedule is a pluggable axis rather than an engine property. A single
// event loop (runLoop) owns contexts, dispatch validation, bit accounting,
// trace recording, the start phase and termination; a Scheduler decides only
// the delivery order, constrained to per-link FIFO. Every recognizer of the
// catalog is a single-token pass — at most one message is in flight — so one
// loop on one goroutine is the whole engine: ScheduledEngine, the loop under
// a fixed scheduler factory.
//
// The schedule catalog is one table (scheduleSpecs in scheduler.go): each row
// holds a schedule's name, aliases, whether it is seeded or prefix-stable,
// its delivery guarantee and its scheduler. ScheduleNames, the classifiers
// and NewEngineByName all read that table. The rows are:
//
//   - sequential: global FIFO. For unidirectional leader-initiated
//     algorithms this reproduces exactly the unique execution the paper
//     describes and makes bit counts reproducible.
//   - random: delivers the head of a uniformly random non-empty link under a
//     seed; used to check schedule-independence across many seeds.
//   - round-robin: cycles over links in a fixed rotation, approximating
//     synchronous rounds.
//   - adversarial: a bounded-delay adversary that prefers the newest
//     non-empty link (maximally anti-FIFO) with a fairness bound so every
//     message still experiences only a finite delay.
//   - lossy, duplicating, crash-restart, crash-repair: the fault axis, which
//     varies delivery fate as well as order (see fault.go).
//
// ConcurrentEngine stands outside the catalog: one goroutine per processor
// connected by unbounded links, a genuinely asynchronous execution. It is
// the literal-asynchrony reference the property tests cross-check the
// scheduler-backed engines against.
//
// New schedules need only implement Scheduler and wrap it with
// NewScheduledEngine.
//
// Runs are driven through Engine.Run (or RunWith on a caller-owned RunState:
// stats, contexts and scheduler queues reused run to run — the batch pool's
// steady-state path) under a Config carrying the message budget, trace
// recording and a cancellation context; a canceled run fails with an error
// wrapping both ErrCanceled and the context's own error.
//
// The engine, not the algorithm, accounts every payload bit sent over every
// link; Stats is the quantity all the paper's results are about.
package ring
