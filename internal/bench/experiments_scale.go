package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// ScaleSizes are the E15 ring sizes: perfect squares (so the count
// recognizer's square-length language has a member at exactly n), rising to
// the million-processor ring the large-ring engine work targets.
var ScaleSizes = []int{1 << 12, 1 << 16, 1 << 20}

// scaleIters picks how many timed iterations a cell of size n gets: enough
// to average out scheduler noise at small n, few enough that the 2^20 cell
// stays respectful of CI time.
func scaleIters(n int, suite Suite) int {
	budget := 1 << 22
	if suite == SuiteQuick {
		budget = 1 << 18
	}
	iters := budget / n
	if iters < 3 {
		iters = 3
	}
	return iters
}

// timedRuns executes the recognizer iters times on word with a reused,
// pre-sized run state, and returns the per-run wall time and steady-state
// heap allocations plus the (schedule-independent) result of the final run.
// The run state is reused and the ring is relabelled in place run to run
// (core.NodeReuse), so the numbers measure the engine loop, not per-run
// construction. Warm-up runs precede the measurement so neither cold-start
// growth of the queue, arena and context arrays (that path has its own
// allocation guards in internal/ring) nor first-touch costs of the process — page faults on fresh
// heap spans, GC pacing against a not-yet-established live set — pollute the
// steady-state numbers. One warm-up is not enough for the latter on 2^20
// rings: the very first large cell otherwise reads several times slower than
// an identical cell run second.
func timedRuns(rec core.Recognizer, word lang.Word, engine ring.Engine, iters int) (nsPerOp, allocsPerOp float64, res *ring.Result, err error) {
	st := ring.NewRunState()
	opts := core.RunOptions{Engine: engine, State: st, Presize: len(word), Ctx: defaultCtx, Reuse: core.NewNodeReuse()}
	warmups := 2 + iters/4
	if warmups > 8 {
		warmups = 8
	}
	for i := 0; i < warmups; i++ {
		if _, err = core.Run(rec, word, opts); err != nil {
			return 0, 0, nil, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if res, err = core.Run(rec, word, opts); err != nil {
			return 0, 0, nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
	return nsPerOp, allocsPerOp, res, nil
}

// ExperimentE15 is the large-ring engine sweep: the count algorithm (one
// Θ(log n)-bit token, one circuit — the lightest Θ(n log n) workload in the
// catalog, so engine overhead dominates) timed at ring sizes up to 2^20 under
// the sequential engine, with reused pre-sized run state. The ns/op and
// allocs/op columns are the perf trajectory that BENCH_engine.json pins at
// the repo root. (A single-token pass keeps one message in flight, so there
// is no intra-run parallelism to measure; parallelism runs across words, in
// exec.Pool.)
func ExperimentE15(sizes []int, suite Suite) (*Table, error) {
	table := &Table{
		ID:         "E15",
		Title:      "large-ring engine: time and allocation trajectory (count, reused pre-sized state)",
		PaperClaim: "engine scaffolding, not a paper claim: the Θ(n log n) count workload at n up to 2^20",
		Columns:    []string{"n", "engine", "bits", "msgs", "bits/(n lg n)", "ns/op", "ns/op/n", "allocs/op"},
	}
	for _, n := range sizes {
		root := int(math.Round(math.Sqrt(float64(n))))
		if root*root != n {
			return nil, fmt.Errorf("bench: E15 size %d is not a perfect square", n)
		}
		rec := core.NewSquareCount()
		word, err := sweepWord(rec, n, MeasureOptions{WindowSet: true}.normalize())
		if err != nil {
			return nil, err
		}
		if len(word) != n {
			return nil, fmt.Errorf("bench: E15 wanted a member of length %d, generator produced %d", n, len(word))
		}
		engine := ring.NewSequentialEngine()
		nsPerOp, allocsPerOp, res, err := timedRuns(rec, word, engine, scaleIters(n, suite))
		if err != nil {
			return nil, fmt.Errorf("bench: E15 %s at n=%d: %w", engine.Name(), n, err)
		}
		if res.Verdict != ring.VerdictAccept {
			return nil, fmt.Errorf("bench: E15 %s at n=%d: rejected a perfect-square length", engine.Name(), n)
		}
		table.AddRow(
			fmtInt(n), engine.Name(),
			fmtInt(res.Stats.Bits), fmtInt(res.Stats.Messages),
			perNLogN(res.Stats.Bits, n),
			fmt.Sprintf("%.0f", nsPerOp),
			fmt.Sprintf("%.1f", nsPerOp/float64(n)),
			fmt.Sprintf("%.1f", allocsPerOp),
		)
		table.AddRecord(BenchRecord{
			Algorithm:   rec.Name(),
			Schedule:    engine.Name(),
			N:           n,
			Bits:        res.Stats.Bits,
			Messages:    res.Stats.Messages,
			NsPerOp:     nsPerOp,
			AllocsPerOp: allocsPerOp,
		})
	}
	table.Notes = append(table.Notes,
		"timings average the post-warm-up steady state: the run state is pre-sized (WithPresize), so allocs/op is the reuse floor, not cold-start growth",
	)
	return table, nil
}
