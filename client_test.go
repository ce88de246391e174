package ringlang

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// testWords is a mixed member/non-member workload for the three-counters
// recognizer.
func testWords() []Word {
	return []Word{
		WordFromString("001122"),
		WordFromString("010212"),
		WordFromString("000111222"),
		WordFromString("012"),
		WordFromString("001122001122"),
		WordFromString("000011112222"),
	}
}

// bigWord is a member word large enough that a batch of them takes a
// schedulable amount of time, so cancellation tests have something to cancel.
func bigWord(k int) Word {
	w := make(Word, 0, 3*k)
	for _, letter := range []rune{'0', '1', '2'} {
		for i := 0; i < k; i++ {
			w = append(w, letter)
		}
	}
	return w
}

// firstRunEngine runs its first word on the sequential engine and blocks
// every later run until the run's context is canceled, so a cancellation test
// always finds exactly one finished word and work still in flight, however
// the pool's workers are scheduled. after, when non-nil, is called once the
// first run has finished.
type firstRunEngine struct {
	ran   atomic.Bool
	after func()
}

func (e *firstRunEngine) Name() string { return "first-run-then-block" }

func (e *firstRunEngine) Run(cfg ring.Config, nodes []ring.Node) (*ring.Result, error) {
	if e.ran.CompareAndSwap(false, true) {
		res, err := ring.NewSequentialEngine().Run(cfg, nodes)
		if e.after != nil {
			e.after()
		}
		return res, err
	}
	<-cfg.Ctx.Done()
	return nil, fmt.Errorf("%w: %w", ring.ErrCanceled, cfg.Ctx.Err())
}

// TestClientBatchPerWordErrors pins the tentpole's no-fail-all contract: a
// malformed word gets its own error and the surrounding words keep their
// reports.
func TestClientBatchPerWordErrors(t *testing.T) {
	client, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	words := []Word{WordFromString("001122"), nil, WordFromString("012"), WordFromString("0a1")}
	results := client.Batch(context.Background(), words)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if results[0].Err != nil || results[0].Report == nil || results[0].Report.Verdict != VerdictAccept {
		t.Errorf("good word 0 = %+v", results[0])
	}
	if results[1].Err == nil || results[1].Report != nil {
		t.Errorf("empty word 1 should fail alone: %+v", results[1])
	}
	if results[2].Err != nil || results[2].Report == nil {
		t.Errorf("good word 2 = %+v", results[2])
	}
	if results[3].Err == nil {
		t.Errorf("word 3 is off-alphabet and should fail: %+v", results[3])
	}
	if client.Batch(context.Background(), nil) != nil {
		t.Error("empty batch should return nil")
	}
}

// TestClientStreamYieldsIncrementally proves Stream does not buffer the
// batch: under a 4-worker pool, the fast words' results are yielded while
// the gated word is still blocked inside its run, and the gate is only
// released by the consumer after the first yield — if Stream buffered, no
// yield could happen before every word (including the gated one) finished
// and the test would deadlock instead of passing.
func TestClientStreamYieldsIncrementally(t *testing.T) {
	release := make(chan struct{})
	gated := "000111222"
	rec := &gatedRecognizer{Recognizer: core.NewThreeCounters(), gate: release, gatedWord: gated}
	client, err := NewClientWith(rec, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	words := []Word{WordFromString(gated), WordFromString("001122"),
		WordFromString("010212"), WordFromString("001122001122")}
	var order []int
	for i, r := range client.Stream(context.Background(), words) {
		if r.Err != nil {
			t.Fatalf("word %d: %v", i, r.Err)
		}
		order = append(order, i)
		if len(order) == 1 {
			if i == 0 {
				t.Fatal("first yield is the gated word; a fast word should stream out first")
			}
			close(release) // only now may the gated word finish
		}
	}
	if len(order) != len(words) {
		t.Fatalf("yielded %d results, want %d", len(order), len(words))
	}
	// The gated word cannot have been yielded before the release, which
	// happened strictly after a fast word streamed out.
	if order[0] == 0 {
		t.Errorf("yield order = %v: the gated word 0 streamed before any fast word", order)
	}
}

// gatedRecognizer delays node construction for one specific word until the
// gate opens; used to pin streaming and cancellation behaviour.
type gatedRecognizer struct {
	Recognizer
	gate      <-chan struct{}
	gatedWord string
	builds    atomic.Int64
}

func (g *gatedRecognizer) NewNodes(w lang.Word) ([]ring.Node, error) {
	g.builds.Add(1)
	if w.String() == g.gatedWord {
		<-g.gate
	}
	return g.Recognizer.NewNodes(w)
}

// TestClientStreamEarlyBreak pins that breaking out of a Stream cancels the
// undispatched words and the iterator returns after the pool drains — no
// goroutine is left feeding a dead consumer.
func TestClientStreamEarlyBreak(t *testing.T) {
	client, err := NewClient("three-counters", "", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	words := make([]Word, 64)
	for i := range words {
		words[i] = bigWord(16)
	}
	yields := 0
	for _, r := range client.Stream(context.Background(), words) {
		if r.Err != nil {
			t.Fatalf("unexpected error before break: %v", r.Err)
		}
		yields++
		break
	}
	if yields != 1 {
		t.Fatalf("yielded %d results after break, want 1", yields)
	}
}

// TestClientStreamCancelMidway cancels the stream's context after the first
// yield: the already-dispatched words finish or abort, the undispatched ones
// report ErrCanceled, and every word is still yielded exactly once. The
// engine finishes only the first word, so the cancel always lands midway.
func TestClientStreamCancelMidway(t *testing.T) {
	const n = 48
	client, err := NewClient("three-counters", "", WithWorkers(2), WithEngine(&firstRunEngine{}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	words := make([]Word, n)
	for i := range words {
		words[i] = bigWord(24)
	}
	seen := make(map[int]int)
	completed, canceled := 0, 0
	for i, r := range client.Stream(ctx, words) {
		seen[i]++
		switch {
		case r.Err == nil:
			completed++
			if completed == 1 {
				cancel()
			}
		case errors.Is(r.Err, ErrCanceled):
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("word %d: ErrCanceled result does not wrap context.Canceled: %v", i, r.Err)
			}
			canceled++
		default:
			t.Errorf("word %d: non-cancellation error: %v", i, r.Err)
		}
	}
	if len(seen) != n {
		t.Fatalf("yielded %d distinct words, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("word %d yielded %d times", i, c)
		}
	}
	if completed == 0 || canceled == 0 {
		t.Errorf("completed=%d canceled=%d: cancel midway should leave both kinds", completed, canceled)
	}
	if completed != 1 {
		t.Errorf("completed=%d, want exactly the engine's one finished word", completed)
	}
}

// TestClientBatchCancelKeepsPartialResults pins the serving-layer contract of
// the tentpole: canceling a batch returns promptly, keeps the reports that
// finished, marks the rest ErrCanceled, and leaks no worker goroutines. The
// engine finishes the first word, cancels, and holds every other run until
// the cancel lands, so both kinds of result are always present.
func TestClientBatchCancelKeepsPartialResults(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client, err := NewClient("three-counters", "", WithWorkers(2), WithEngine(&firstRunEngine{after: cancel}))
	if err != nil {
		t.Fatal(err)
	}
	words := make([]Word, 256)
	for i := range words {
		words[i] = bigWord(48)
	}
	start := time.Now()
	results := client.Batch(ctx, words)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("canceled batch took %v to return", elapsed)
	}
	completed, canceled := 0, 0
	for i, r := range results {
		switch {
		case r.Err == nil:
			completed++
			if r.Report.Verdict != VerdictAccept {
				t.Errorf("word %d verdict = %v", i, r.Report.Verdict)
			}
		case errors.Is(r.Err, ErrCanceled):
			canceled++
		default:
			t.Errorf("word %d: non-cancellation error: %v", i, r.Err)
		}
	}
	if completed+canceled != len(words) {
		t.Fatalf("completed=%d canceled=%d, want %d total", completed, canceled, len(words))
	}
	if completed != 1 || canceled == 0 {
		t.Errorf("completed=%d canceled=%d: the cancel should land after exactly one finished word", completed, canceled)
	}
	// Closing the client must wind down every pool worker goroutine.
	client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after canceled batch", before, now)
	}
}

// TestClientPreCanceledContext pins the cheapest path: a context canceled
// before the call runs nothing and reports ErrCanceled everywhere.
func TestClientPreCanceledContext(t *testing.T) {
	client, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Recognize(ctx, WordFromString("001122")); !errors.Is(err, ErrCanceled) {
		t.Errorf("Recognize under canceled ctx: %v", err)
	}
	for i, r := range client.Batch(ctx, testWords()) {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("Batch word %d under canceled ctx: %v", i, r.Err)
		}
	}
}

// TestSentinelErrors pins the error taxonomy: every lookup and cancellation
// failure is classifiable with errors.Is against the exported sentinels.
func TestSentinelErrors(t *testing.T) {
	if _, err := NewClient("no-such-algorithm", ""); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: %v", err)
	}
	if _, err := NewClient("regular-one-pass", "no-such-language"); !errors.Is(err, ErrUnknownLanguage) {
		t.Errorf("unknown language: %v", err)
	}
	if _, err := NewClient("collect-all", "wcw", WithSchedule("bogus")); !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("unknown schedule: %v", err)
	}
	if _, err := NewClient("lg", "no-such-growth"); !errors.Is(err, ErrUnknownLanguage) {
		t.Errorf("unknown growth function: %v", err)
	}
	if _, err := NewClient("parity-one-pass", "k=x"); !errors.Is(err, ErrUnknownLanguage) {
		t.Errorf("malformed parity language: %v", err)
	}
}

// TestClientTrace pins WithTrace: traced clients return the event sequence,
// untraced ones do not pay for it.
func TestClientTrace(t *testing.T) {
	traced, err := NewClient("three-counters", "", WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	word := WordFromString("001122")
	tr, err := traced.Recognize(ctx, word)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Trace) == 0 {
		t.Error("traced report has no trace")
	}
	pr, err := plain.Recognize(ctx, word)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Trace != nil {
		t.Error("untraced report has a trace")
	}
	// The batch path carries traces too.
	for i, r := range traced.Batch(ctx, []Word{word, word}) {
		if r.Err != nil {
			t.Fatalf("word %d: %v", i, r.Err)
		}
		if len(r.Report.Trace) == 0 {
			t.Errorf("batch word %d has no trace", i)
		}
	}
}

// TestClientCloseLifecycle pins the pool lifecycle: Batch and Stream share a
// persistent pool, Close releases its workers and retires the client, a
// second Close is a no-op, and every call after Close reports ErrClosed
// instead of panicking.
func TestClientCloseLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	client, err := NewClient("three-counters", "", WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	words := testWords()
	for i, r := range client.Batch(ctx, words) {
		if r.Err != nil {
			t.Fatalf("word %d: %v", i, r.Err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := client.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := client.Recognize(ctx, words[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Recognize after Close: %v", err)
	}
	results := client.Batch(ctx, words)
	if len(results) != len(words) {
		t.Fatalf("Batch after Close returned %d results, want %d", len(results), len(words))
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("Batch word %d after Close: %v", i, r.Err)
		}
	}
	streamed := 0
	for _, r := range client.Stream(ctx, words) {
		streamed++
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("Stream result after Close: %v", r.Err)
		}
	}
	if streamed != len(words) {
		t.Errorf("Stream after Close yielded %d results, want %d", streamed, len(words))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked after Close: %d before, %d after", before, now)
	}
}

// TestClientCloseConcurrentWithBatch races Close against in-flight Batch and
// Stream calls: no call may panic, every word reports either a normal result
// or ErrClosed, and Close waits for the in-flight work instead of yanking the
// pool out from under it. Run with -race in CI.
func TestClientCloseConcurrentWithBatch(t *testing.T) {
	client, err := NewClient("three-counters", "", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	words := []Word{bigWord(24), bigWord(32), bigWord(40)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range client.Batch(ctx, words) {
				if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
					t.Errorf("batch during Close: %v", r.Err)
				}
			}
			for _, r := range client.Stream(ctx, words) {
				if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
					t.Errorf("stream during Close: %v", r.Err)
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	if err := client.Close(); err != nil {
		t.Errorf("Close racing Batch/Stream: %v", err)
	}
	wg.Wait()
}

// TestWithEngineLabel pins that a pinned engine is authoritative: its name
// becomes the schedule label (any WithSchedule string is ignored, not left
// unvalidated) and the report is labelled with the engine actually used.
func TestWithEngineLabel(t *testing.T) {
	client, err := NewClientWith(core.NewThreeCounters(),
		WithSchedule("sequential"), WithEngine(ring.NewConcurrentEngine()))
	if err != nil {
		t.Fatal(err)
	}
	if client.ScheduleName() != "concurrent" {
		t.Errorf("ScheduleName = %q, want the pinned engine's name", client.ScheduleName())
	}
	report, err := client.Recognize(context.Background(), WordFromString("001122"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Schedule != "concurrent" {
		t.Errorf("report schedule = %q, want concurrent", report.Schedule)
	}
}

// TestClientAccessorsAndNilCtx covers the metadata accessors and the
// nil-context tolerance of every method.
func TestClientAccessorsAndNilCtx(t *testing.T) {
	client, err := NewClient("three-counters", "", WithSchedule("round-robin"))
	if err != nil {
		t.Fatal(err)
	}
	if client.AlgorithmName() != "three-counters" {
		t.Errorf("AlgorithmName = %q", client.AlgorithmName())
	}
	if client.LanguageName() != "0^k1^k2^k" {
		t.Errorf("LanguageName = %q", client.LanguageName())
	}
	if client.ScheduleName() != "round-robin" {
		t.Errorf("ScheduleName = %q", client.ScheduleName())
	}
	//nolint:staticcheck // nil ctx tolerance is part of the contract under test
	if _, err := client.Recognize(nil, WordFromString("001122")); err != nil {
		t.Errorf("nil ctx Recognize: %v", err)
	}
	//nolint:staticcheck
	for i, r := range client.Batch(nil, testWords()[:2]) {
		if r.Err != nil {
			t.Errorf("nil ctx Batch word %d: %v", i, r.Err)
		}
	}
	//nolint:staticcheck
	for i, r := range client.Stream(nil, testWords()[:2]) {
		if r.Err != nil {
			t.Errorf("nil ctx Stream word %d: %v", i, r.Err)
		}
	}
}

// TestRecognizeReportDoesNotPinRunState is the retention guard of Recognize:
// a Report keeps its Stats (the header and the per-link counters), never the
// transient run state the engine ran in — its contexts, scratch writers and
// scheduler queues. A memo cache holding reports would otherwise keep every
// run's state alive.
func TestRecognizeReportDoesNotPinRunState(t *testing.T) {
	const (
		reports  = 500
		letters  = 256
		maxBytes = 16 << 10
	)
	client, err := NewClient("majority", "")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(256))
	words := make([]Word, reports)
	for i := range words {
		words[i] = lang.RandomWord(lang.NewAlphabet('0', '1'), letters, rng)
	}
	kept := make([]*Report, reports)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, w := range words {
		if kept[i], err = client.Recognize(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perReport := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / reports
	t.Logf("%d-letter report retains %.1f KiB", letters, float64(perReport)/1024)
	if perReport >= maxBytes {
		t.Errorf("each retained %d-letter report holds %d bytes (limit %d): reports pin their run state", letters, perReport, maxBytes)
	}
	runtime.KeepAlive(kept)
}
