package ringlang

import (
	"context"
	"errors"
	"testing"

	"ringlang/internal/ring"
)

// recognize runs one word through a per-call client.
func recognize(algorithm, language, word string, opts ...Option) (*Report, error) {
	client, err := NewClient(algorithm, language, opts...)
	if err != nil {
		return nil, err
	}
	return client.Recognize(context.Background(), WordFromString(word))
}

func TestRecognizeFacade(t *testing.T) {
	cases := []struct {
		algorithm string
		language  string
		word      string
		want      Verdict
	}{
		{"three-counters", "", "001122", VerdictAccept},
		{"three-counters", "", "010212", VerdictReject},
		{"compare-wcw", "", "abcab", VerdictAccept},
		{"regular-one-pass", "even-ones", "0110", VerdictAccept},
		{"regular-one-pass", "even-ones", "0111", VerdictReject},
	}
	for _, c := range cases {
		report, err := recognize(c.algorithm, c.language, c.word)
		if err != nil {
			t.Fatalf("Recognize(%s, %q): %v", c.algorithm, c.word, err)
		}
		if report.Verdict != c.want {
			t.Errorf("Recognize(%s, %q) = %v, want %v", c.algorithm, c.word, report.Verdict, c.want)
		}
		if (report.Verdict == VerdictAccept) != report.Member {
			t.Errorf("verdict and language membership disagree for %q", c.word)
		}
		if report.Bits <= 0 || report.Messages <= 0 || report.ProcessorCount != len(c.word) {
			t.Errorf("report accounting looks wrong: %+v", report)
		}
	}
}

// TestRecognizeConcurrentOption pins the literal-asynchrony reference
// through the facade: the concurrent engine, pinned with WithEngine, agrees
// with the sequential default on verdict and bits.
func TestRecognizeConcurrentOption(t *testing.T) {
	seq, err := recognize("three-counters", "", "000111222")
	if err != nil {
		t.Fatal(err)
	}
	conc, err := recognize("three-counters", "", "000111222", WithEngine(ring.NewConcurrentEngine()))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Bits != conc.Bits || seq.Verdict != conc.Verdict {
		t.Errorf("engines disagree: %+v vs %+v", seq, conc)
	}
	if seq.Schedule != "sequential" || conc.Schedule != "concurrent" {
		t.Errorf("schedule labels = %q/%q, want sequential/concurrent", seq.Schedule, conc.Schedule)
	}
}

func TestRecognizeScheduleOption(t *testing.T) {
	base, err := recognize("three-counters", "", "000111222")
	if err != nil {
		t.Fatal(err)
	}
	if base.Schedule != "sequential" {
		t.Errorf("default schedule = %q, want sequential", base.Schedule)
	}
	for _, schedule := range ScheduleNames() {
		report, err := recognize("three-counters", "", "000111222", WithSchedule(schedule), WithSeed(5))
		if ScheduleDeliveryGuarantee(schedule) != DeliveryExactlyOnce {
			// A raw algorithm under weaker-than-exactly-once delivery is
			// refused, typed — never run into a silently wrong verdict.
			if !errors.Is(err, ErrDeliveryNotTolerated) {
				t.Errorf("schedule %q: got %v, want ErrDeliveryNotTolerated", schedule, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("schedule %q: %v", schedule, err)
		}
		if report.Schedule != schedule {
			t.Errorf("report schedule = %q, want %q", report.Schedule, schedule)
		}
		if report.Bits != base.Bits || report.Verdict != base.Verdict {
			t.Errorf("schedule %q disagrees with sequential: %+v vs %+v", schedule, report, base)
		}
	}
	for _, bogus := range []string{"bogus", "concurrent", "sharded"} {
		if _, err := recognize("three-counters", "", "000111222", WithSchedule(bogus)); !errors.Is(err, ErrUnknownSchedule) {
			t.Errorf("schedule %q: got %v, want ErrUnknownSchedule", bogus, err)
		}
	}
	if len(ScheduleNames()) != 8 {
		t.Errorf("ScheduleNames = %v, want the eight catalog schedules", ScheduleNames())
	}
}

func TestRecognizeErrors(t *testing.T) {
	if _, err := recognize("bogus", "", "ab"); err == nil {
		t.Error("expected error for unknown algorithm")
	}
	if _, err := recognize("three-counters", "", ""); err == nil {
		t.Error("expected error for empty ring")
	}
}

func TestNameCatalogs(t *testing.T) {
	if len(AlgorithmNames()) < 10 {
		t.Error("AlgorithmNames too short")
	}
	if len(LanguageNames()) < 10 {
		t.Error("LanguageNames too short")
	}
}
