package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestExperimentE15AndRecordsJSON smoke-runs the large-ring sweep at a small
// perfect-square size and pins the machine-readable path end to end: one
// record per size, and a -json document that round-trips through
// encoding/json.
func TestExperimentE15AndRecordsJSON(t *testing.T) {
	table, err := ExperimentE15([]int{1024}, SuiteQuick)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 1 || len(table.Records) != 1 {
		t.Fatalf("got %d rows / %d records, want 1/1", len(table.Rows), len(table.Records))
	}
	seq := table.Records[0]
	if seq.Schedule != "sequential" {
		t.Fatalf("record schedule %q, want sequential", seq.Schedule)
	}
	for _, r := range table.Records {
		if r.Experiment != "E15" || r.Algorithm != "count" || r.N != 1024 {
			t.Errorf("record identity fields wrong: %+v", r)
		}
		if r.Bits <= 0 || r.Messages != 1024 || r.NsPerOp <= 0 {
			t.Errorf("record measurements not populated: %+v", r)
		}
	}

	var buf bytes.Buffer
	if err := WriteRecordsJSON(&buf, SuiteQuick, []*Table{table}); err != nil {
		t.Fatal(err)
	}
	var set RecordSet
	if err := json.Unmarshal(buf.Bytes(), &set); err != nil {
		t.Fatalf("-json document does not round-trip: %v\n%s", err, buf.String())
	}
	if set.Suite != "quick" || len(set.Records) != 1 {
		t.Fatalf("decoded suite %q with %d records, want quick/1", set.Suite, len(set.Records))
	}
	if set.Records[0] != seq {
		t.Errorf("decoded record differs: %+v vs %+v", set.Records[0], seq)
	}
}

// TestExperimentE16QuickShape smoke-runs the prefix-checkpoint sweep at a
// small size: three records per cell (cold, warm-shared, warm-steady), the
// warm rows at or below the cold baseline in both time and (for the steady
// resume) allocations. The bit-identity cross-checks hard-fail inside the
// experiment itself, so err == nil already covers them.
func TestExperimentE16QuickShape(t *testing.T) {
	table, err := ExperimentE16([]int{1024}, SuiteQuick)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 || len(table.Records) != 3 {
		t.Fatalf("got %d rows / %d records, want 3/3 (cold, warm-shared, warm-steady)", len(table.Rows), len(table.Records))
	}
	cold, shared, steady := table.Records[0], table.Records[1], table.Records[2]
	if cold.Schedule != "sequential/cold" ||
		shared.Schedule != "sequential/warm-shared-7/8" ||
		steady.Schedule != "sequential/warm-steady" {
		t.Fatalf("record schedules %q/%q/%q are not the three variants", cold.Schedule, shared.Schedule, steady.Schedule)
	}
	for _, r := range table.Records {
		if r.Experiment != "E16" || r.Algorithm != "majority" || r.N != 1024 {
			t.Errorf("record identity fields wrong: %+v", r)
		}
		if r.Bits <= 0 || r.Messages != 1024 || r.NsPerOp <= 0 {
			t.Errorf("record measurements not populated: %+v", r)
		}
	}
	if shared.NsPerOp >= cold.NsPerOp {
		t.Errorf("warm-shared %.0f ns/op should beat cold %.0f ns/op", shared.NsPerOp, cold.NsPerOp)
	}
	if steady.NsPerOp >= cold.NsPerOp {
		t.Errorf("warm-steady %.0f ns/op should beat cold %.0f ns/op", steady.NsPerOp, cold.NsPerOp)
	}
	if steady.AllocsPerOp > cold.AllocsPerOp+0.5 {
		t.Errorf("steady resume allocs %.1f/op above cold floor %.1f/op", steady.AllocsPerOp, cold.AllocsPerOp)
	}
}

// TestWriteRecordsJSONEmpty pins the no-records shape: a valid document with
// an empty records array, not a null.
func TestWriteRecordsJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecordsJSON(&buf, SuiteFull, []*Table{{ID: "E1"}}); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["records"]) == "null" {
		t.Error("records should encode as [] when empty, got null")
	}
	if string(raw["suite"]) != `"full"` {
		t.Errorf("suite = %s, want \"full\"", raw["suite"])
	}
}
