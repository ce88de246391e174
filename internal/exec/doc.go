// Package exec is the batch-execution subsystem: a worker pool that fans
// (recognizer × word × schedule) jobs across GOMAXPROCS goroutines.
//
// The Mansour–Zaks bounds are per-execution, so executions are
// embarrassingly parallel across words, sizes and schedules. What makes the
// pool more than a bare errgroup is state reuse: each worker owns one
// ring.RunState per engine it runs — the stats accounting with its dense
// per-link array, the processor contexts and the scheduler's deque backing
// arrays — so a worker's steady-state run allocates only what the algorithm
// itself sends plus one snapshot of the results. Batch results are
// bit-for-bit identical to serial core.Run/core.Check calls under every
// built-in schedule; internal/exec's property tests enforce this.
//
// Entry points: NewPool/Pool.RunBatchContext for a long-lived pool,
// RunBatchContext for one-shot batches, RunEach to stream results
// in completion order (what ringlang.Client.Stream is built on). Dispatch is
// context-aware: a canceled batch stops handing out jobs, reports the
// undispatched ones with ring.ErrCanceled, and never discards the words that
// completed. The facade (ringlang.Client.Batch/Stream), the bench sweeps
// (bench.MeasureOptions.Workers) and the cmd tools' -workers flags all go
// through here — including the serving tier, whose per-key clients each own
// one of these pools, making Pool the engine-concurrency bound behind
// ringserve's admission limit.
package exec
