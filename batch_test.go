package ringlang

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestRecognizeBatchMatchesRecognize pins the facade-level batch contract:
// Client.Batch returns, in order, exactly the reports per-word
// Client.Recognize calls produce — for every catalog schedule, seed and
// worker count. Schedules weaker than exactly-once refuse a raw recognizer
// on both paths with the same typed error.
func TestRecognizeBatchMatchesRecognize(t *testing.T) {
	ctx := context.Background()
	words := testWords()
	for _, schedule := range ScheduleNames() {
		for _, seed := range []int64{0, 9} {
			single, err := NewClient("three-counters", "", WithSchedule(schedule), WithSeed(seed))
			if err != nil {
				t.Fatalf("schedule %q: %v", schedule, err)
			}
			refused := ScheduleDeliveryGuarantee(schedule) != DeliveryExactlyOnce
			want := make([]*Report, len(words))
			for i, w := range words {
				r, err := single.Recognize(ctx, w)
				if refused {
					if !errors.Is(err, ErrDeliveryNotTolerated) {
						t.Errorf("schedule %q word %q: %v, want ErrDeliveryNotTolerated", schedule, w.String(), err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("schedule %q word %q: %v", schedule, w.String(), err)
				}
				want[i] = r
			}
			for _, workers := range []int{0, 1, 3} {
				client, err := NewClient("three-counters", "", WithSchedule(schedule), WithSeed(seed), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range client.Batch(ctx, words) {
					if refused {
						if !errors.Is(r.Err, ErrDeliveryNotTolerated) {
							t.Errorf("schedule %q batch word %d: %v, want ErrDeliveryNotTolerated", schedule, i, r.Err)
						}
						continue
					}
					if r.Err != nil {
						t.Fatalf("schedule %q/%d workers=%d word %d: %v", schedule, seed, workers, i, r.Err)
					}
					if !reflect.DeepEqual(r.Report, want[i]) {
						t.Errorf("schedule %q/%d workers=%d word %d: batch report differs from Recognize", schedule, seed, workers, i)
					}
				}
				client.Close()
			}
		}
	}
}

// TestRecognizeBatchErrors pins Client.Batch's error shape: a failing word
// carries the package prefix and fails alone, and an empty batch is empty.
func TestRecognizeBatchErrors(t *testing.T) {
	client, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	results := client.Batch(context.Background(), []Word{WordFromString("001122"), nil})
	if results[0].Err != nil {
		t.Errorf("good word 0 failed: %v", results[0].Err)
	}
	if err := results[1].Err; err == nil || len(err.Error()) < 9 || err.Error()[:9] != "ringlang:" {
		t.Errorf("failing word's error does not carry the package prefix: %v", err)
	}
	if got := client.Batch(context.Background(), nil); len(got) != 0 {
		t.Errorf("empty batch = %v", got)
	}
}
