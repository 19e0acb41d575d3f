package store

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSweepRecordReplayAndCompaction pins the sweep extension of the
// event schema: Points survives the submitted event, the done event's
// Results list survives replay AND a compaction rewrite, and result files
// referenced only by a sweep record are exempt from GC.
func TestSweepRecordReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	bundle := json.RawMessage(`{"fake":"sweep-bundle"}`)
	keys := []string{sampleKey(1), sampleKey(2), sampleKey(3)}
	for i, k := range keys {
		if err := s.PutResult(k, sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	evs := []Event{
		{T: EvSubmitted, Job: "job-00000001", At: tstamp(1), Key: sampleKey(9), Engine: "e", Bundle: bundle, Points: 3},
		{T: EvStarted, Job: "job-00000001", At: tstamp(2), Shards: 2},
		{T: EvDone, Job: "job-00000001", At: tstamp(3), Engine: "e", Results: keys},
	}
	for _, ev := range evs {
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}

	check := func(stage string, st *Store) {
		t.Helper()
		recs := st.Records()
		if len(recs) != 1 {
			t.Fatalf("%s: %d records, want 1", stage, len(recs))
		}
		r := recs[0]
		if r.State != StateDone || r.Points != 3 || !reflect.DeepEqual(r.Results, keys) {
			t.Fatalf("%s: record state=%s points=%d results=%v", stage, r.State, r.Points, r.Results)
		}
		if r.Bundle != nil {
			t.Fatalf("%s: terminal record kept its bundle", stage)
		}
	}
	check("live", s)

	// Crash image: reopen without closing.
	s2, err := Open(dir, Options{MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("replayed", s2)

	// Compaction rewrites from the record table; the sweep fields must
	// round-trip through recordEvents, and gcResults must treat every
	// per-point key as referenced even with MaxResults=1.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", s2)
	for _, k := range keys {
		if !s2.HasResult(k) {
			t.Fatalf("GC removed sweep-referenced result %s", k)
		}
	}
	s.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	check("reopened after compaction", s3)
}

// TestDispatchedSweepRangesReplayAndCompaction pins what a dispatcher's
// journal keeps of a scattered sweep: the per-range assigned events are
// history (they fold into no record field, a plain job's Worker/Remote
// included), and the done event's final range table survives replay AND a
// compaction rewrite, so a restarted dispatcher still knows which worker
// holds which slice of the results.
func TestDispatchedSweepRangesReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{From: 0, To: 2, Worker: "w1", Remote: "job-00000007"}, {From: 2, To: 4, Worker: "w2", Remote: "job-00000003"}}
	evs := []Event{
		{T: EvSubmitted, Job: "job-00000001", At: tstamp(1), Key: sampleKey(9), Engine: "e", Bundle: json.RawMessage(`{"fake":"sweep"}`), Points: 4},
		{T: EvAssigned, Job: "job-00000001", At: tstamp(2), Worker: "w1", Remote: "job-00000007", From: 0, To: 2},
		{T: EvAssigned, Job: "job-00000001", At: tstamp(2), Worker: "w1", Remote: "job-00000002", From: 2, To: 4},
		{T: EvStarted, Job: "job-00000001", At: tstamp(3), Shards: 2},
		{T: EvAssigned, Job: "job-00000001", At: tstamp(4), Worker: "w2", Remote: "job-00000003", From: 2, To: 4},
		{T: EvDone, Job: "job-00000001", At: tstamp(5), Engine: "e", Ranges: ranges},
		// A plain job beside it: its whole-job assignment is its record's.
		{T: EvSubmitted, Job: "job-00000002", At: tstamp(1), Key: sampleKey(8), Engine: "e"},
		{T: EvAssigned, Job: "job-00000002", At: tstamp(2), Worker: "w2", Remote: "job-00000009"},
		{T: EvDone, Job: "job-00000002", At: tstamp(3), Engine: "e"},
	}
	for _, ev := range evs {
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string, st *Store) {
		t.Helper()
		recs := st.Records()
		if len(recs) != 2 {
			t.Fatalf("%s: %d records, want 2", stage, len(recs))
		}
		sweep, plain := recs[0], recs[1]
		if sweep.State != StateDone || sweep.Points != 4 || !reflect.DeepEqual(sweep.Ranges, ranges) {
			t.Fatalf("%s: sweep record state=%s points=%d ranges=%+v", stage, sweep.State, sweep.Points, sweep.Ranges)
		}
		if sweep.Worker != "" || sweep.Remote != "" {
			t.Fatalf("%s: a range assignment folded into the sweep's record: worker=%q remote=%q", stage, sweep.Worker, sweep.Remote)
		}
		if plain.Worker != "w2" || plain.Remote != "job-00000009" || plain.Ranges != nil {
			t.Fatalf("%s: plain record worker=%q remote=%q ranges=%+v", stage, plain.Worker, plain.Remote, plain.Ranges)
		}
	}
	check("live", s)
	s2, err := Open(dir, Options{}) // crash image: reopen without closing
	if err != nil {
		t.Fatal(err)
	}
	check("replayed", s2)
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", s2)
	s.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	check("reopened after compaction", s3)
}
