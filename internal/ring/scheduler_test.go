package ring

import (
	"errors"
	"testing"

	"ringlang/internal/bits"
)

// tagged builds a Delivery consistent with the given link id (the queues
// recompute endpoints from the id, so To/From must match it) carrying tag as
// an 8-bit payload, which is how these unit tests track ordering.
func tagged(link, tag int) Delivery {
	var w bits.Writer
	for i := 7; i >= 0; i-- {
		w.WriteBool(tag>>uint(i)&1 == 1)
	}
	return Delivery{To: link >> 1, From: Direction(link&1 + 1), Payload: w.String()}
}

// tagOf decodes a tagged delivery's payload.
func tagOf(d Delivery) int {
	tag := 0
	for i := 0; i < 8; i++ {
		b, _ := d.Payload.Bit(i)
		tag <<= 1
		if b {
			tag |= 1
		}
	}
	return tag
}

func TestFifoQueuePushPopWrapAndGrow(t *testing.T) {
	var q fifoQueue
	if q.len() != 0 {
		t.Fatal("new queue should be empty")
	}
	payload := oneBit()
	// Interleave pushes and pops so the slot ring's head wraps around the
	// buffer, then grow past the initial capacity.
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			q.push(round*100+i, Forward, payload)
		}
		for i := 0; i < 100; i++ {
			if got := q.pop(); got.To != round*100+i || got.From != Forward {
				t.Fatalf("round %d: pop = %+v, want To=%d", round, got, round*100+i)
			}
		}
	}
	q.push(7, Forward, payload)
	q.reset()
	if q.len() != 0 {
		t.Error("reset should empty the queue")
	}
}

// TestFifoQueuePayloadArenaIntegrity drives the payload arena through wraps,
// contiguity padding and mid-flight growth with variable-length payloads, and
// checks every popped view still decodes to the bits that were pushed.
func TestFifoQueuePayloadArenaIntegrity(t *testing.T) {
	mk := func(i int) bits.String {
		var w bits.Writer
		for b := 0; b <= i%23; b++ {
			w.WriteBool((i>>uint(b%8))&1 == 1)
		}
		return w.String()
	}
	var q fifoQueue
	next, popped := 0, 0
	for next < 600 {
		for k := 0; k < 3 && next < 600; k++ {
			q.push(next&7, Backward, mk(next))
			next++
		}
		// Keep one message in flight so the arena head trails the tail and
		// wrap padding actually happens.
		for q.len() > 1 {
			d := q.pop()
			if !d.Payload.Equal(mk(popped)) {
				t.Fatalf("message %d: payload = %v, want %v", popped, d.Payload, mk(popped))
			}
			popped++
		}
	}
	for q.len() > 0 {
		d := q.pop()
		if !d.Payload.Equal(mk(popped)) {
			t.Fatalf("drain %d: payload = %v, want %v", popped, d.Payload, mk(popped))
		}
		popped++
	}
	if popped != 600 {
		t.Fatalf("popped %d messages, want 600", popped)
	}
}

func TestSchedulersPreservePerLinkFIFO(t *testing.T) {
	scheds := []Scheduler{
		NewFIFOScheduler(),
		NewRandomScheduler(42),
		NewRoundRobinScheduler(),
		NewAdversarialScheduler(3),
	}
	for _, s := range scheds {
		s.Reset(8)
		// Three messages on link 2 interleaved with traffic on links 0 and 5.
		s.Push(2, tagged(2, 20))
		s.Push(0, tagged(0, 1))
		s.Push(2, tagged(2, 21))
		s.Push(5, tagged(5, 50))
		s.Push(2, tagged(2, 22))
		var link2 []int
		for {
			d, ok := s.Next()
			if !ok {
				break
			}
			if tag := tagOf(d); tag >= 20 && tag < 30 {
				link2 = append(link2, tag)
			}
		}
		if len(link2) != 3 || link2[0] != 20 || link2[1] != 21 || link2[2] != 22 {
			t.Errorf("%s: link 2 deliveries out of FIFO order: %v", s.Name(), link2)
		}
		if _, ok := s.Next(); ok {
			t.Errorf("%s: Next on a drained scheduler should report no delivery", s.Name())
		}
	}
}

func TestSchedulerResetDiscardsState(t *testing.T) {
	scheds := []Scheduler{
		NewFIFOScheduler(),
		NewRandomScheduler(1),
		NewRoundRobinScheduler(),
		NewAdversarialScheduler(2),
	}
	for _, s := range scheds {
		s.Reset(4)
		s.Push(1, tagged(1, 1))
		s.Push(3, tagged(3, 3))
		s.Reset(4)
		if d, ok := s.Next(); ok {
			t.Errorf("%s: Reset leaked a pending delivery: %+v", s.Name(), d)
		}
	}
}

func TestRoundRobinCyclesLinks(t *testing.T) {
	s := NewRoundRobinScheduler()
	s.Reset(6)
	// Two messages each on links 1 and 4; round-robin must alternate links
	// rather than drain one first.
	s.Push(1, tagged(1, 10))
	s.Push(1, tagged(1, 11))
	s.Push(4, tagged(4, 40))
	s.Push(4, tagged(4, 41))
	var order []int
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		order = append(order, tagOf(d))
	}
	want := []int{10, 40, 11, 41}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order = %v, want %v", order, want)
		}
	}
}

func TestAdversarialPrefersNewestLink(t *testing.T) {
	s := NewAdversarialScheduler(100) // fairness bound far away
	s.Reset(6)
	s.Push(0, tagged(0, 100))
	s.Push(1, tagged(1, 101))
	s.Push(2, tagged(2, 102))
	// Newest-first: link 2, then 1, then 0.
	for _, want := range []int{102, 101, 100} {
		d, ok := s.Next()
		if !ok || tagOf(d) != want {
			t.Fatalf("adversarial delivery tag = %d (ok=%v), want %d", tagOf(d), ok, want)
		}
	}
}

func TestAdversarialFairnessBoundServesOldestLink(t *testing.T) {
	s := NewAdversarialScheduler(2) // every 2nd delivery serves the oldest link
	s.Reset(4)
	s.Push(0, tagged(0, 1)) // oldest
	s.Push(1, tagged(1, 10))
	s.Push(1, tagged(1, 11))
	s.Push(1, tagged(1, 12))
	// Delivery 1: newest link (1). Delivery 2: fairness, oldest link (0).
	first, _ := s.Next()
	second, _ := s.Next()
	if tagOf(first) != 10 || tagOf(second) != 1 {
		t.Errorf("delivery tags = %d, %d; want 10 then 1 (fairness on 2nd)", tagOf(first), tagOf(second))
	}
}

func TestNewEngineByNameAndAliases(t *testing.T) {
	// Engine names label reports, key the exec engine cache and gate prefix
	// checkpointing, so they are pinned verbatim.
	wantNames := map[string]string{
		"sequential":    "sequential",
		"random":        "random-order(seed=3)",
		"round-robin":   "round-robin",
		"adversarial":   "adversarial(bound=8)",
		"lossy":         "lossy(seed=3,drop=0.125)",
		"duplicating":   "duplicating(seed=3,dup=0.125)",
		"crash-restart": "crash-restart(seed=3)",
		"crash-repair":  "crash-repair(seed=3)",
	}
	for _, name := range ScheduleNames() {
		eng, err := NewEngineByName(name, 3)
		if err != nil {
			t.Fatalf("NewEngineByName(%q): %v", name, err)
		}
		if eng.Name() != wantNames[name] {
			t.Errorf("engine for %q is named %q, want %q", name, eng.Name(), wantNames[name])
		}
	}
	if got := NewRandomOrderEngine(3).Name(); got != "random-order(seed=3)" {
		t.Errorf("NewRandomOrderEngine(3).Name() = %q", got)
	}
	if got := NewSequentialEngine().Name(); got != "sequential" {
		t.Errorf("NewSequentialEngine().Name() = %q", got)
	}
	for alias, canonical := range map[string]string{
		"fifo":          "sequential",
		"random-order":  "random",
		"bounded-delay": "adversarial",
	} {
		if _, err := NewEngineByName(alias, 0); err != nil {
			t.Errorf("alias %q (for %s) rejected: %v", alias, canonical, err)
		}
	}
	_, err := NewEngineByName("bogus", 0)
	if !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("expected ErrUnknownSchedule, got %v", err)
	}
	if _, err := NewSchedulerByName("bogus", 0); err == nil {
		t.Error("NewSchedulerByName should reject unknown names")
	}
	if s, err := NewSchedulerByName("sequential", 0); err != nil || s.Name() == "" {
		t.Errorf("NewSchedulerByName(sequential) = %v, %v", s, err)
	}
}

// newEngines returns the scheduler-backed engines added by the event-loop
// refactor, for the shared behavioural tests below.
func newEngines() []Engine {
	return []Engine{NewRoundRobinEngine(), NewAdversarialEngine(DefaultAdversarialBound)}
}

func TestNewEnginesTokenRing(t *testing.T) {
	for _, eng := range newEngines() {
		for _, n := range []int{1, 2, 3, 8, 64} {
			res, err := eng.Run(Config{Mode: Unidirectional, RequireVerdict: true}, tokenNodes(n))
			if err != nil {
				t.Fatalf("%s n=%d: %v", eng.Name(), n, err)
			}
			if res.Verdict != VerdictAccept || res.Stats.Messages != n || res.Stats.Bits != n {
				t.Errorf("%s n=%d: verdict=%v messages=%d bits=%d",
					eng.Name(), n, res.Verdict, res.Stats.Messages, res.Stats.Bits)
			}
		}
	}
}

func TestNewEnginesBidirectionalBounce(t *testing.T) {
	for _, eng := range newEngines() {
		n := 7
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &bounceNode{leader: i == LeaderIndex}
		}
		res, err := eng.Run(Config{Mode: Bidirectional, RequireVerdict: true}, nodes)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Verdict != VerdictAccept || res.Stats.Messages != 4 {
			t.Errorf("%s: verdict=%v messages=%d", eng.Name(), res.Verdict, res.Stats.Messages)
		}
	}
}

func TestNewEnginesGuardsAndQuiescence(t *testing.T) {
	for _, eng := range newEngines() {
		flood := make([]Node, 5)
		for i := range flood {
			flood[i] = &floodOnceNode{}
		}
		res, err := eng.Run(Config{Initiators: AllProcessors}, flood)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Verdict != VerdictNone || res.Stats.Messages != 5 {
			t.Errorf("%s: verdict=%v messages=%d", eng.Name(), res.Verdict, res.Stats.Messages)
		}

		loop := make([]Node, 4)
		for i := range loop {
			loop[i] = &loopForeverNode{leader: i == LeaderIndex}
		}
		if _, err := eng.Run(Config{MaxMessages: 50}, loop); !errors.Is(err, ErrMessageBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrMessageBudgetExceeded", eng.Name(), err)
		}
		if _, err := eng.Run(Config{}, nil); !errors.Is(err, ErrNoProcessors) {
			t.Errorf("%s: err = %v, want ErrNoProcessors", eng.Name(), err)
		}
		bad := []Node{&illegalBackwardNode{leader: true}, &illegalBackwardNode{}}
		if _, err := eng.Run(Config{Mode: Unidirectional}, bad); !errors.Is(err, ErrBackwardInUnidirectional) {
			t.Errorf("%s: err = %v, want ErrBackwardInUnidirectional", eng.Name(), err)
		}
	}
}

func TestNewEnginesMatchSequentialAccounting(t *testing.T) {
	for _, n := range []int{3, 9, 21} {
		build := func() []Node {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &incrementNode{leader: i == LeaderIndex, want: uint64(n)}
			}
			return nodes
		}
		seq, err := NewSequentialEngine().Run(Config{RequireVerdict: true}, build())
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range newEngines() {
			res, err := eng.Run(Config{RequireVerdict: true}, build())
			if err != nil {
				t.Fatalf("%s n=%d: %v", eng.Name(), n, err)
			}
			if res.Stats.Bits != seq.Stats.Bits || res.Verdict != seq.Verdict {
				t.Errorf("%s n=%d: accounting mismatch (bits %d vs %d)",
					eng.Name(), n, res.Stats.Bits, seq.Stats.Bits)
			}
		}
	}
}

func TestScheduledEngineIsReusableAcrossRuns(t *testing.T) {
	eng := NewAdversarialEngine(3)
	for run := 0; run < 3; run++ {
		res, err := eng.Run(Config{RequireVerdict: true}, tokenNodes(10))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Stats.Messages != 10 {
			t.Errorf("run %d: messages = %d, want 10 (state leaked between runs?)", run, res.Stats.Messages)
		}
	}
}

func TestTraceRecordingOnScheduledEngines(t *testing.T) {
	for _, eng := range newEngines() {
		res, err := eng.Run(Config{RecordTrace: true, RequireVerdict: true}, tokenNodes(4))
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if len(res.Trace) == 0 {
			t.Fatalf("%s: expected a non-empty trace", eng.Name())
		}
		for i, ev := range res.Trace {
			if ev.Seq != i {
				t.Errorf("%s: trace seq %d at index %d", eng.Name(), ev.Seq, i)
			}
		}
		if res.Trace[len(res.Trace)-1].Kind != EventVerdict {
			t.Errorf("%s: last trace event should be the verdict", eng.Name())
		}

		off, err := eng.Run(Config{RequireVerdict: true}, tokenNodes(4))
		if err != nil {
			t.Fatal(err)
		}
		if off.Trace != nil {
			t.Errorf("%s: trace should be nil when recording is off", eng.Name())
		}
	}
}
