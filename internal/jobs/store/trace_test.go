package store

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestTraceSurvivesReplayAndCompaction pins the trace contract on the
// journal: the submitted event's trace lands on the replayed record, and
// compaction's record→events rewrite carries it into the next process
// life.
func TestTraceSurvivesReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two long-lived traced records, then churn past the compaction
	// threshold.
	for i := 1; i <= 2; i++ {
		ev := Event{
			T: EvSubmitted, Job: fmt.Sprintf("job-%08d", i), Trace: fmt.Sprintf("trace-%d", i),
			At: tstamp(i), Key: sampleKey(i), Bundle: json.RawMessage(`{}`),
		}
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 200; i++ {
		id := fmt.Sprintf("job-%08d", i)
		for _, ev := range []Event{
			{T: EvSubmitted, Job: id, At: tstamp(i), Key: sampleKey(i % 50)},
			{T: EvCanceled, Job: id, At: tstamp(i)},
			{T: EvForget, Job: id, At: tstamp(i)},
		} {
			if err := s.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.met.compactions.Value() == 0 {
		t.Fatal("churn did not trigger a compaction")
	}
	for _, r := range s.Records() {
		var n int
		fmt.Sscanf(r.Job, "job-%08d", &n)
		if want := fmt.Sprintf("trace-%d", n); r.Trace != want {
			t.Fatalf("record %s trace = %q, want %q", r.Job, r.Trace, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("trace-%d", i+1); r.Trace != want {
			t.Fatalf("post-compaction replay lost the trace: %s = %q, want %q", r.Job, r.Trace, want)
		}
	}
}
