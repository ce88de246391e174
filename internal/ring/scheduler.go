package ring

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// ErrUnknownSchedule is returned when a schedule name is not one of
// ScheduleNames (or their aliases). It wraps the detailed lookup errors of
// NewSchedulerByName and NewEngineByName, so callers classify failures with
// errors.Is instead of string matching.
var ErrUnknownSchedule = errors.New("ring: unknown schedule")

// Scheduler chooses the order in which pending messages are delivered by the
// shared event loop (runLoop). The paper's bounds hold under every legal
// asynchronous schedule, so the schedule is an experiment axis, not an engine
// property: one loop, many schedulers.
//
// Implementations must preserve FIFO order within each directed link — links
// are channels and never reorder — but may interleave different links
// arbitrarily; every such interleaving is a legal execution of the
// asynchronous model.
type Scheduler interface {
	// Name identifies the schedule in reports and flag values.
	Name() string
	// Reset prepares the scheduler for a fresh run over `links` directed
	// links (see linkIndex), discarding any state from a previous run.
	Reset(links int)
	// Push appends d to the FIFO queue of the given link.
	Push(link int, d Delivery)
	// Next removes and returns the next delivery to perform; ok is false
	// when no message is pending.
	Next() (d Delivery, ok bool)
}

// fifoScheduler delivers messages in global first-in-first-out order — the
// sequential schedule. One shared queue suffices:
// global FIFO trivially preserves per-link FIFO. The queue is the
// struct-of-arrays fifoQueue, so the default engine's in-flight messages
// live in one flat arena.
type fifoScheduler struct {
	q fifoQueue
}

// NewFIFOScheduler returns the deterministic global-FIFO schedule.
func NewFIFOScheduler() Scheduler { return &fifoScheduler{} }

func (s *fifoScheduler) Name() string              { return "sequential" }
func (s *fifoScheduler) Reset(links int)           { s.q.reset() }
func (s *fifoScheduler) Push(link int, d Delivery) { s.q.push(d.To, d.From, d.Payload) }

func (s *fifoScheduler) Next() (Delivery, bool) {
	if s.q.len() == 0 {
		return Delivery{}, false
	}
	return s.q.pop(), true
}

// randomScheduler delivers the head of a uniformly random non-empty link,
// driven by a seeded generator so runs are reproducible.
type randomScheduler struct {
	seed     int64
	rng      *rand.Rand
	links    linkQueues
	nonEmpty []int
}

// NewRandomScheduler returns a seeded random-order schedule.
func NewRandomScheduler(seed int64) Scheduler { return &randomScheduler{seed: seed} }

//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (s *randomScheduler) Name() string { return fmt.Sprintf("random-order(seed=%d)", s.seed) }

func (s *randomScheduler) Reset(links int) {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.links.reset(links)
	s.nonEmpty = s.nonEmpty[:0]
}

// Push enqueues d and tracks the link on the non-empty list.
//
//ring:hotpath guard=TestLoopAllocatesLessThanSeedLoop
func (s *randomScheduler) Push(link int, d Delivery) {
	if s.links.push(link, d) {
		//ring:prealloc -- nonEmpty keeps its capacity across Reset; growth is first-run only
		s.nonEmpty = append(s.nonEmpty, link)
	}
}

// Next delivers the head of a uniformly random non-empty link. The generator
// is seeded per run, so the schedule is reproducible.
//
//ring:deterministic
//ring:hotpath guard=TestLoopAllocatesLessThanSeedLoop
func (s *randomScheduler) Next() (Delivery, bool) {
	if len(s.nonEmpty) == 0 {
		return Delivery{}, false
	}
	i := s.rng.Intn(len(s.nonEmpty))
	link := s.nonEmpty[i]
	d := s.links.pop(link)
	if s.links.empty(link) {
		s.nonEmpty[i] = s.nonEmpty[len(s.nonEmpty)-1]
		s.nonEmpty = s.nonEmpty[:len(s.nonEmpty)-1]
	}
	return d, true
}

// roundRobinScheduler cycles over the directed links in a fixed rotation,
// delivering at most one message per link per turn. It approximates the
// synchronous round structure distributed algorithms are often (incorrectly)
// reasoned about in, while remaining a legal asynchronous schedule.
type roundRobinScheduler struct {
	links  linkQueues
	cursor int
}

// NewRoundRobinScheduler returns the round-robin-by-link schedule.
func NewRoundRobinScheduler() Scheduler { return &roundRobinScheduler{} }

func (s *roundRobinScheduler) Name() string { return "round-robin" }

func (s *roundRobinScheduler) Reset(links int) {
	s.links.reset(links)
	s.cursor = 0
}

func (s *roundRobinScheduler) Push(link int, d Delivery) { s.links.push(link, d) }

func (s *roundRobinScheduler) Next() (Delivery, bool) {
	if s.links.pending == 0 {
		return Delivery{}, false
	}
	n := len(s.links.head)
	for i := 0; i < n; i++ {
		link := s.cursor + i
		if link >= n {
			link -= n
		}
		if !s.links.empty(link) {
			s.cursor = link + 1
			if s.cursor == n {
				s.cursor = 0
			}
			return s.links.pop(link), true
		}
	}
	// Unreachable: pending > 0 implies some link is non-empty.
	return Delivery{}, false
}

// DefaultAdversarialBound is the fairness bound used when an adversarial
// schedule is selected by name.
const DefaultAdversarialBound = 8

// adversarialScheduler is a bounded-delay adversary. It prefers the link that
// became non-empty most recently (newest-first — the exact opposite of FIFO),
// which maximally delays old messages and flushes out algorithms that
// silently assume global FIFO delivery. Every bound-th delivery it instead
// serves the longest-waiting link, so no message is delayed forever and the
// schedule stays legal under the paper's finite-delay asynchronous model.
//
// Bookkeeping: every non-empty link keeps at least one live hint on the
// newest-first stack and one in the oldest-first queue. Hints for links that
// were drained through the other structure go stale and are skipped on pop;
// a stale hint can at worst cause a link to be offered again, never reorder
// a link's own FIFO queue.
type adversarialScheduler struct {
	bound    int
	links    linkQueues
	newest   []int // stack of hints, newest activation last
	oldest   []int // queue of hints, oldest activation first
	oldestAt int   // head index into oldest
	count    int
}

// NewAdversarialScheduler returns a bounded-delay adversarial schedule.
// Bounds below 1 fall back to DefaultAdversarialBound.
func NewAdversarialScheduler(bound int) Scheduler {
	if bound < 1 {
		bound = DefaultAdversarialBound
	}
	return &adversarialScheduler{bound: bound}
}

//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (s *adversarialScheduler) Name() string {
	return fmt.Sprintf("adversarial(bound=%d)", s.bound)
}

func (s *adversarialScheduler) Reset(links int) {
	s.links.reset(links)
	s.newest = s.newest[:0]
	s.oldest = s.oldest[:0]
	s.oldestAt = 0
	s.count = 0
}

func (s *adversarialScheduler) Push(link int, d Delivery) {
	if s.links.push(link, d) {
		s.newest = append(s.newest, link) //ring:prealloc -- capacity survives Reset; growth is first-run only
		s.oldest = append(s.oldest, link) //ring:prealloc -- capacity survives Reset; growth is first-run only
	}
}

// Next serves the newest-activated link, except every bound-th delivery,
// which serves the oldest — a deterministic schedule despite its hostility.
//
//ring:deterministic
func (s *adversarialScheduler) Next() (Delivery, bool) {
	if s.links.pending == 0 {
		return Delivery{}, false
	}
	s.count++
	var link int
	if s.count%s.bound == 0 {
		link = s.popOldest()
		d := s.links.pop(link)
		if !s.links.empty(link) {
			s.oldest = append(s.oldest, link) //ring:prealloc -- re-pushes a hint just popped; capacity survives Reset, growth is first-run only
		}
		return d, true
	}
	link = s.popNewest()
	d := s.links.pop(link)
	if !s.links.empty(link) {
		s.newest = append(s.newest, link) //ring:prealloc -- re-pushes a hint just popped; capacity survives Reset, growth is first-run only
	}
	return d, true
}

// popNewest pops hints off the stack until one names a non-empty link.
func (s *adversarialScheduler) popNewest() int {
	for {
		link := s.newest[len(s.newest)-1]
		s.newest = s.newest[:len(s.newest)-1]
		if !s.links.empty(link) {
			return link
		}
	}
}

// popOldest advances the queue head past stale hints to a non-empty link.
func (s *adversarialScheduler) popOldest() int {
	for {
		link := s.oldest[s.oldestAt]
		s.oldestAt++
		if s.oldestAt > len(s.oldest)/2 {
			s.oldest = append(s.oldest[:0], s.oldest[s.oldestAt:]...)
			s.oldestAt = 0
		}
		if !s.links.empty(link) {
			return link
		}
	}
}

// scheduleSpec is one row of the schedule catalog: every fact the rest of
// the system keys off a schedule name lives here and nowhere else.
type scheduleSpec struct {
	// name is the canonical name; aliases fold onto it.
	name    string
	aliases []string
	// seeded: the execution depends on the seed (randomized order, or
	// seeded fault draws), so results must be keyed by seed.
	seeded bool
	// prefixStable: see ScheduleIsPrefixStable.
	prefixStable bool
	// guarantee is what the network still promises under the schedule.
	guarantee DeliveryGuarantee
	// new builds the scheduler; deterministic schedules ignore the seed.
	new func(seed int64) Scheduler
}

// scheduleSpecs is the schedule catalog, in ScheduleNames order. The head
// varies delivery order only; the tail is the fault axis, which varies
// delivery fate (see fault.go). Lossy and crash-restart faults are absorbed
// by the link layer, so they still uphold the paper's exactly-once model.
var scheduleSpecs = []scheduleSpec{
	{name: "sequential", aliases: []string{"fifo"}, prefixStable: true,
		new: func(int64) Scheduler { return NewFIFOScheduler() }},
	{name: "random", aliases: []string{"random-order"}, seeded: true,
		new: NewRandomScheduler},
	{name: "round-robin", prefixStable: true,
		new: func(int64) Scheduler { return NewRoundRobinScheduler() }},
	{name: "adversarial", aliases: []string{"bounded-delay"},
		new: func(int64) Scheduler { return NewAdversarialScheduler(DefaultAdversarialBound) }},
	{name: "lossy", aliases: []string{"drop"}, seeded: true,
		new: func(seed int64) Scheduler { return NewLossyScheduler(seed, DefaultDropRate, DefaultMaxRetransmits) }},
	{name: "duplicating", aliases: []string{"at-least-once"}, seeded: true, guarantee: AtLeastOnce,
		new: func(seed int64) Scheduler { return NewDuplicatingScheduler(seed, DefaultDuplicateRate) }},
	{name: "crash-restart", aliases: []string{"self-stabilizing"}, seeded: true,
		new: NewCrashRestartScheduler},
	{name: "crash-repair", aliases: []string{"crash"}, seeded: true, guarantee: CrashProne,
		new: NewCrashRepairScheduler},
}

// lookupSchedule returns the catalog row of a canonical name or alias, or
// nil for an unknown name.
func lookupSchedule(name string) *scheduleSpec {
	for i := range scheduleSpecs {
		if s := &scheduleSpecs[i]; s.name == name || slices.Contains(s.aliases, name) {
			return s
		}
	}
	return nil
}

// lookupScheduleErr is lookupSchedule with the ErrUnknownSchedule error the
// constructors report.
func lookupScheduleErr(name string) (*scheduleSpec, error) {
	if s := lookupSchedule(name); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w %q (known: %s)",
		ErrUnknownSchedule, name, strings.Join(ScheduleNames(), ", "))
}

// engine wraps a scheduler factory of the row's schedule (possibly with
// non-default parameters) as an engine named after its scheduler and
// carrying the row's delivery guarantee.
func (s *scheduleSpec) engine(factory func() Scheduler) *ScheduledEngine {
	return &ScheduledEngine{name: factory().Name(), factory: factory, guarantee: s.guarantee}
}

// seededEngine is the row's default engine under the given seed.
func (s *scheduleSpec) seededEngine(seed int64) *ScheduledEngine {
	return s.engine(func() Scheduler { return s.new(seed) })
}

// ScheduleNames lists the canonical schedule names accepted by
// NewSchedulerByName and NewEngineByName (and hence by every -schedule flag
// and the facade's WithSchedule). The tail of the list is the fault axis —
// schedules that vary delivery fate, not just delivery order (see fault.go);
// use ScheduleDeliveryGuarantee to classify what each one still promises.
func ScheduleNames() []string {
	names := make([]string, len(scheduleSpecs))
	for i := range scheduleSpecs {
		names[i] = scheduleSpecs[i].name
	}
	return names
}

// CanonicalScheduleName folds an accepted alias ("fifo", "random-order",
// "bounded-delay", "drop", "at-least-once", "crash", "self-stabilizing")
// onto its canonical name in ScheduleNames. Unknown names (and the empty
// string) pass through unchanged; the constructors remain the validators.
// Anything that keys state by schedule name (the serving tier's memo cache,
// a client pool) should key by the canonical name so aliases converge on one
// entry.
func CanonicalScheduleName(name string) string {
	if s := lookupSchedule(name); s != nil {
		return s.name
	}
	return name
}

// ScheduleUsesSeed reports whether the named schedule's execution depends on
// the seed. Randomized delivery order does, and so does every fault
// schedule: their drop/duplicate/crash fates are seeded draws. Results under
// the remaining schedules are seed-independent, which is what lets the
// serving tier memoize them under one seed.
func ScheduleUsesSeed(name string) bool {
	s := lookupSchedule(name)
	return s != nil && s.seeded
}

// ScheduleDeliveryGuarantee classifies the delivery guarantee of a schedule
// name (canonical names and aliases of ScheduleNames): what the network
// still promises once the schedule has had its way. Consumers that require
// bit-identical results across schedules should filter on ExactlyOnce
// rather than enumerate names. Unknown names classify as ExactlyOnce; the
// constructors remain the validators. An engine built by name reports the
// same guarantee (see EngineDeliveryGuarantee).
func ScheduleDeliveryGuarantee(name string) DeliveryGuarantee {
	if s := lookupSchedule(name); s != nil {
		return s.guarantee
	}
	return ExactlyOnce
}

// NewSchedulerByName builds a built-in scheduler by name. The seed drives
// seeded schedules and is ignored by deterministic ones.
func NewSchedulerByName(name string, seed int64) (Scheduler, error) {
	s, err := lookupScheduleErr(name)
	if err != nil {
		return nil, err
	}
	return s.new(seed), nil
}

// NewEngineByName resolves a schedule name (see ScheduleNames) to a
// ready-to-run engine. This is the single lookup behind the cmd tools'
// -schedule flags and the facade's WithSchedule.
//
//ring:coldpath -- engine construction, once per run or batch worker
func NewEngineByName(name string, seed int64) (Engine, error) {
	s, err := lookupScheduleErr(name)
	if err != nil {
		return nil, err
	}
	return s.seededEngine(seed), nil
}
