package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/result"
)

func tstamp(i int) time.Time {
	return time.Date(2026, 7, 27, 12, 0, i, 0, time.UTC)
}

func sampleResult(seed int) *result.Result {
	return &result.Result{
		Engine:  "fake.store",
		Samples: 100,
		Entries: []result.Entry{
			{Bitstring: "0101", Index: uint64(seed % 16), Count: 60},
			{Bitstring: "1010", Index: uint64((seed + 5) % 16), Count: 40},
		},
	}
}

func sampleKey(i int) string {
	return "sha256:" + strings.Repeat(fmt.Sprintf("%02x", i), 32)
}

// TestKillAndReopen appends a mixed lifecycle, reopens the directory
// WITHOUT closing the first store (the crash image: O_APPEND writes are
// in the file the moment Append returns), and checks the replayed table.
func TestKillAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bundle := json.RawMessage(`{"fake":"bundle"}`)
	evs := []Event{
		{T: EvSubmitted, Job: "job-00000001", At: tstamp(1), Key: sampleKey(1), Engine: "e", Bundle: bundle},
		{T: EvStarted, Job: "job-00000001", At: tstamp(2), Shards: 4},
		{T: EvDone, Job: "job-00000001", At: tstamp(3), Engine: "e", Result: sampleKey(1)},
		{T: EvSubmitted, Job: "job-00000002", At: tstamp(4), Key: sampleKey(2), Engine: "e", Bundle: bundle},
		{T: EvStarted, Job: "job-00000002", At: tstamp(5), Shards: 1},
		{T: EvSubmitted, Job: "job-00000003", At: tstamp(6), Key: sampleKey(3), Engine: "e", Bundle: bundle},
		{T: EvSubmitted, Job: "job-00000004", At: tstamp(7), Key: sampleKey(4), Engine: "e", Bundle: bundle},
		{T: EvFailed, Job: "job-00000004", At: tstamp(8), Error: "boom"},
		{T: EvSubmitted, Job: "job-00000005", At: tstamp(9), Key: sampleKey(5), Engine: "e", Bundle: bundle},
		{T: EvCanceled, Job: "job-00000005", At: tstamp(10)},
		{T: EvSubmitted, Job: "job-00000006", At: tstamp(11), Key: sampleKey(6), Engine: "e", Bundle: bundle},
		{T: EvForget, Job: "job-00000006", At: tstamp(12)},
	}
	for _, ev := range evs {
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutResult(sampleKey(1), sampleResult(1)); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Reopen the same directory.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5 (forgotten job dropped): %+v", len(recs), recs)
	}
	byJob := map[string]*Record{}
	for _, r := range recs {
		byJob[r.Job] = r
	}
	r1 := byJob["job-00000001"]
	if r1.State != StateDone || r1.ResultKey != sampleKey(1) || !r1.Terminal() {
		t.Fatalf("job 1: %+v", r1)
	}
	if r1.Bundle != nil {
		t.Fatal("terminal record must drop the bundle")
	}
	if !r1.Submitted.Equal(tstamp(1)) || !r1.Started.Equal(tstamp(2)) || !r1.Finished.Equal(tstamp(3)) {
		t.Fatalf("job 1 timings: %+v", r1)
	}
	if r2 := byJob["job-00000002"]; r2.State != StateRunning || string(r2.Bundle) != string(bundle) || r2.Shards != 1 {
		t.Fatalf("job 2: %+v", r2)
	}
	if r3 := byJob["job-00000003"]; r3.State != StateQueued || string(r3.Bundle) != string(bundle) {
		t.Fatalf("job 3: %+v", r3)
	}
	if r4 := byJob["job-00000004"]; r4.State != StateFailed || r4.Error != "boom" {
		t.Fatalf("job 4: %+v", r4)
	}
	if r5 := byJob["job-00000005"]; r5.State != StateCanceled {
		t.Fatalf("job 5: %+v", r5)
	}
	res, ok, err := s2.GetResult(sampleKey(1))
	if err != nil || !ok {
		t.Fatalf("result: %v ok=%v", err, ok)
	}
	if !reflect.DeepEqual(res, sampleResult(1)) {
		t.Fatalf("result round-trip: %+v", res)
	}
}

// TestTruncatedFinalLineTolerated simulates the torn write of a crash
// mid-append: the final journal line is a partial record. Replay must
// drop it (and only it), truncate the file, and keep appending cleanly.
func TestTruncatedFinalLineTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		ev := Event{T: EvSubmitted, Job: fmt.Sprintf("job-%08d", i), At: tstamp(i), Key: sampleKey(i)}
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Torn tail: half a JSON object, no newline.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"submitted","job":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn tail must not fail the boot: %v", err)
	}
	if got := len(s2.Records()); got != 3 {
		t.Fatalf("replayed %d records, want 3 (torn line dropped)", got)
	}
	if s2.Stats().TruncatedTail != 1 {
		t.Fatal("truncated tail not reported in stats")
	}
	// The file was truncated back to the last good line: appending and
	// reopening must parse cleanly.
	if err := s2.Append(Event{T: EvSubmitted, Job: "job-00000009", At: tstamp(9), Key: sampleKey(9)}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := len(s3.Records()); got != 4 {
		t.Fatalf("after truncate+append: %d records, want 4", got)
	}
	if s3.Stats().TruncatedTail != 0 {
		t.Fatal("clean journal reported a truncated tail")
	}
}

// TestCorruptInteriorLineFailsBoot: only the FINAL line may be torn;
// garbage with valid records after it means real corruption and must not
// be silently skipped.
func TestCorruptInteriorLineFailsBoot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Event{T: EvSubmitted, Job: "job-00000001", At: tstamp(1), Key: sampleKey(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte("{\"t\":\"subm\n"), raw...)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("interior corruption must fail Open")
	}
}

// TestCompaction drives the journal past the compaction threshold with
// repeated submit/cancel churn on a small live table and checks the file
// shrinks while replaying to the same state.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, CompactFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two long-lived records plus heavy churn of forgotten jobs.
	for i := 1; i <= 2; i++ {
		ev := Event{T: EvSubmitted, Job: fmt.Sprintf("job-%08d", i), At: tstamp(i), Key: sampleKey(i), Bundle: json.RawMessage(`{}`)}
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
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after %d events (lines=%d records=%d)", st.Events, st.Lines, st.Records)
	}
	if st.Lines > 2*st.Records+compactFloor+3 {
		t.Fatalf("journal did not shrink: lines=%d records=%d", st.Lines, st.Records)
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
		t.Fatalf("compacted journal replays %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.State != StateQueued || string(r.Bundle) != "{}" {
			t.Fatalf("compacted record lost state: %+v", r)
		}
	}
}

// TestResultGC checks unreferenced result files beyond MaxResults are
// collected at compaction, oldest first, while referenced files survive.
func TestResultGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, MaxResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if err := s.PutResult(sampleKey(i), sampleResult(i)); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so "oldest" is well-defined on coarse clocks.
		path, _ := s.resultPath(sampleKey(i))
		mt := time.Now().Add(time.Duration(i-6) * time.Hour)
		os.Chtimes(path, mt, mt)
	}
	// Job 1 references key 0 (the oldest file): GC must keep it.
	if err := s.Append(Event{T: EvSubmitted, Job: "job-00000001", At: tstamp(1), Key: sampleKey(0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Down to MaxResults: the referenced oldest file is kept, so the
	// three unreferenced oldest (1, 2, 3) are the ones collected.
	if got := s.Stats().Results; got != 3 {
		t.Fatalf("results after GC = %d, want 3", got)
	}
	if !s.HasResult(sampleKey(0)) {
		t.Fatal("referenced result was collected")
	}
	for _, i := range []int{1, 2, 3} {
		if s.HasResult(sampleKey(i)) {
			t.Fatalf("old unreferenced result %d survived GC", i)
		}
	}
	for _, i := range []int{4, 5} {
		if !s.HasResult(sampleKey(i)) {
			t.Fatalf("newest result %d was collected", i)
		}
	}
}

// TestGroupCommitDurableAndBatched hammers a SyncAlways store from many
// goroutines: every append must be durable (all records replay after a
// kill-style reopen) while the fsync barrier batches — far fewer fsyncs
// than events, on the default policy.
func TestGroupCommitDurableAndBatched(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Widen the barrier window: on filesystems where fsync returns
	// instantly the syncer would finish one line's sync before the next
	// line arrives and batching would be invisible.
	testSyncHook = func() { time.Sleep(2 * time.Millisecond) }
	defer func() { testSyncHook = nil }()
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := fmt.Sprintf("job-%08d", i)
			if err := s.Append(Event{T: EvSubmitted, Job: job, At: tstamp(i % 60), Key: sampleKey(i % 8), Engine: "fake.store"}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Events != n {
		t.Fatalf("events = %d, want %d", st.Events, n)
	}
	if st.Syncs >= n {
		t.Fatalf("the barrier did not batch: %d fsyncs for %d events", st.Syncs, n)
	}
	if st.Syncs == 0 {
		t.Fatal("no fsync issued at all")
	}

	// Crash image: reopen without closing — every acknowledged append
	// must already be in the file.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.Records()); got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
	s.Close()
}

// TestAssignedEventReplay checks the fleet dispatcher's assignment event:
// last assignment wins on replay, and compaction regenerates it.
func TestAssignedEventReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Append(Event{T: EvSubmitted, Job: "job-00000001", At: tstamp(1), Key: sampleKey(1), Engine: "fake.store", Bundle: json.RawMessage(`{"a":1}`)}))
	must(s.Append(Event{T: EvAssigned, Job: "job-00000001", At: tstamp(2), Worker: "http://w1:8080", Remote: "job-00000042"}))
	// Worker died; re-forwarded elsewhere — the newer assignment wins.
	must(s.Append(Event{T: EvAssigned, Job: "job-00000001", At: tstamp(3), Worker: "http://w2:8080", Remote: "job-00000007"}))
	must(s.Close())

	check := func(s *Store) {
		t.Helper()
		recs := s.Records()
		if len(recs) != 1 {
			t.Fatalf("records: %d", len(recs))
		}
		r := recs[0]
		if r.Worker != "http://w2:8080" || r.Remote != "job-00000007" {
			t.Fatalf("assignment = %q/%q, want latest", r.Worker, r.Remote)
		}
		if r.State != StateQueued || string(r.Bundle) != `{"a":1}` {
			t.Fatalf("record lost submitted fields: %+v", r)
		}
	}
	s2, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	check(s2)
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	check(s3)
}

// TestParseSyncPolicy pins the flag values.
func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "terminal": SyncTerminal, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	// "group" was a policy once; its guarantee is now what "always" does.
	for _, s := range []string{"sometimes", "group", ""} {
		if _, err := ParseSyncPolicy(s); err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
			t.Fatalf("ParseSyncPolicy(%q) = %v, want the unknown-policy error", s, err)
		}
	}
}

// TestResultKeyValidation: hostile keys must not escape the results dir.
func TestResultKeyValidation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, key := range []string{"", "sha256:", "md5:abcd", "sha256:../../etc/passwd", "sha256:zzzz"} {
		if err := s.PutResult(key, sampleResult(1)); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
}

// returns reports whether fn returns within d.
func returns(d time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestCommitZeroNeverWaits: a line the policy asks no fsync of gets
// sequence number 0, and Commit(0) returns with the barrier held — every
// line under SyncNone, a started or assigned line under SyncTerminal.
func TestCommitZeroNeverWaits(t *testing.T) {
	release := InstallBarrier(t).Hold()
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
		ev     string
	}{
		{"none/submitted", SyncNone, EvSubmitted},
		{"none/done", SyncNone, EvDone},
		{"terminal/started", SyncTerminal, EvStarted},
		{"terminal/assigned", SyncTerminal, EvAssigned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir(), Options{Sync: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			seq, err := s.Write(Event{T: tc.ev, Job: "job-00000001", At: tstamp(1)})
			if err != nil || seq != 0 {
				t.Fatalf("Write = %d, %v; want sequence 0", seq, err)
			}
			if !returns(5*time.Second, func() { err = s.Commit(seq) }) || err != nil {
				t.Fatalf("Commit(0) waited for the barrier (err %v)", err)
			}
			if got := s.Stats().Syncs; got != 0 {
				t.Fatalf("%d fsyncs for a line that asked for none", got)
			}
		})
	}
	// The same policies do put the lines they cover behind the barrier.
	s, err := Open(t.TempDir(), Options{Sync: SyncTerminal})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer release()
	seq, err := s.Write(Event{T: EvSubmitted, Job: "job-00000001", At: tstamp(1)})
	if err != nil || seq == 0 {
		t.Fatalf("Write(submitted) under terminal = %d, %v; want a sequence number to wait on", seq, err)
	}
	if returns(50*time.Millisecond, func() { s.Commit(seq) }) {
		t.Fatal("Commit returned with the barrier held")
	}
	release()
	if err := s.Commit(seq); err != nil {
		t.Fatal(err)
	}
}

// TestFailedFsyncFailsItsBarrier swaps the journal handle for a pipe, whose
// writes succeed and whose fsync cannot: the failed fsync fails exactly the
// committers its barrier covered, counts once, is not retried while no new
// line asks, and is retried by the next line — which, on the real file
// again, succeeds.
func TestFailedFsyncFailsItsBarrier(t *testing.T) {
	release := InstallBarrier(t).Hold()
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer release()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	s.mu.Lock()
	real := s.f
	s.f = pw
	s.mu.Unlock()

	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		seq, err := s.Write(Event{T: EvSubmitted, Job: fmt.Sprintf("job-%08d", i), At: tstamp(i)})
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- s.Commit(seq) }()
	}
	release() // one fsync for the three lines, and it fails
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a committer covered by the failed fsync was told its line is durable")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a committer covered by the failed fsync still waits")
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a spinning syncer to show
	if st := s.Stats(); st.Syncs != 1 || st.Errors != 1 {
		t.Fatalf("after one failed barrier: %d fsyncs, %d errors; want 1 and 1", st.Syncs, st.Errors)
	}

	s.mu.Lock()
	s.f = real
	s.mu.Unlock()
	if err := s.Append(Event{T: EvSubmitted, Job: "job-00000009", At: tstamp(9)}); err != nil {
		t.Fatalf("the line after a failed fsync: %v", err)
	}
	if st := s.Stats(); st.Syncs != 2 || st.Errors != 1 {
		t.Fatalf("after the retry: %d fsyncs, %d errors; want 2 and 1", st.Syncs, st.Errors)
	}
}

// TestCommitRacingClose: committers caught by Close return — with the
// verdict of Close's own fsync or an error, never a hang — and so does
// every Append that comes after.
func TestCommitRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					if s.Append(Event{T: EvSubmitted, Job: fmt.Sprintf("job-%d-%08d", g, i), At: tstamp(i % 60)}) != nil {
						return // the store is closed
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !returns(10*time.Second, wg.Wait) {
			t.Fatal("an Append racing Close never returned")
		}
	}
}

// TestCompactionReleasesCommitters: a compaction that comes due in one
// Commit rewrites and fsyncs every line written so far, so committers
// waiting on the barrier are released by it — here with the syncer held.
func TestCompactionReleasesCommitters(t *testing.T) {
	release := InstallBarrier(t).Hold()
	s, err := Open(t.TempDir(), Options{CompactFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer release()
	var seq uint64
	for i := 0; i < compactFloor; i++ {
		id := fmt.Sprintf("job-%08d", i)
		for _, ev := range []Event{{T: EvSubmitted, Job: id, At: tstamp(i % 60)}, {T: EvForget, Job: id, At: tstamp(i % 60)}} {
			if seq, err = s.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	waiting := make(chan error, 1)
	go func() { waiting <- s.Commit(seq) }()
	select {
	case err := <-waiting:
		t.Fatalf("Commit returned (err %v) with the barrier held", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.Commit(0); err != nil { // runs the compaction that is due
		t.Fatal(err)
	}
	select {
	case err := <-waiting:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the compaction did not release the committer waiting on lines it made durable")
	}
	if st := s.Stats(); st.Compactions != 1 || st.Syncs != 0 {
		t.Fatalf("%d compactions, %d barrier fsyncs; want 1 and 0", st.Compactions, st.Syncs)
	}
}

// TestParentJournalReplays: the two journals under testdata were written by
// qmlserve processes of the commit before Write/Commit (a worker's, with a
// done, a cache-hit, a running, a canceled and a pinned queued job, and a
// dispatcher's, with assignments) and SIGKILLed; beside each is the record
// table that build replayed from it. The journal's lines, replay and merge
// rules did not change, so this build folds the same table.
func TestParentJournalReplays(t *testing.T) {
	for _, name := range []string{"parent_pool_journal", "parent_dispatcher_journal"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".records.json"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(s.Records(), "", "  ")
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != string(want) {
			t.Errorf("%s replays to\n%s\nthe build that wrote it replayed\n%s", name, got, want)
		}
	}
}
