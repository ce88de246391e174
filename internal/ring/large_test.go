package ring

import (
	"testing"
	"time"
)

// TestSequentialLargeRing is the scale pin of the engine: a one-bit token
// circulates once around a ring of 2^20 processors (2^16 under -short, which
// the -race CI step uses) and must be accepted at exactly n messages and n
// bits. Once a RunState has run the ring, a steady-state run stays at the
// sequential loop's allocation floor — the Result, nothing that grows
// with n.
func TestSequentialLargeRing(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	nodes := tokenNodes(n)
	eng := NewSequentialEngine()
	st := NewRunState()
	cfg := Config{RequireVerdict: true}

	start := time.Now()
	res, err := eng.RunWith(st, cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictAccept || res.Stats.Messages != n || res.Stats.Bits != n {
		t.Fatalf("n=%d: verdict=%v messages=%d bits=%d", n, res.Verdict, res.Stats.Messages, res.Stats.Bits)
	}
	t.Logf("n=%d token circulation completed in %v", n, time.Since(start))

	allocs := testing.AllocsPerRun(2, func() {
		if _, err := eng.RunWith(st, cfg, nodes); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("n=%d steady-state allocs/run: %.0f (ceiling %d)", n, allocs, allocCeilingSteadyStateN4096)
	if allocs > allocCeilingSteadyStateN4096 {
		t.Errorf("n=%d reused-state run allocates %.0f/run (ceiling %d): backing arrays are re-growing per run",
			n, allocs, allocCeilingSteadyStateN4096)
	}
}
