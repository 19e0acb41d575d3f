package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/result"
)

// recordSize is the length of the record PutResult appends for key.
func recordSize(t testing.TB, key string, res *result.Result) int64 {
	t.Helper()
	body, err := appendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	return int64(recordHeader + len(key) + len(body))
}

// shrinkSegments sizes segments to hold n sampleResult records, for the
// length of the test.
func shrinkSegments(t testing.TB, n int) {
	t.Helper()
	var largest int64
	for i := 0; i < 16; i++ {
		largest = max(largest, recordSize(t, sampleKey(i), sampleResult(i)))
	}
	segmentLimit = int64(n) * largest
	t.Cleanup(func() { segmentLimit = segmentBytes })
}

// storedBody is the body of key's record, the bytes a result file held
// before the result log.
func storedBody(t testing.TB, s *Store, key string) []byte {
	t.Helper()
	rec, ok, err := s.results.get(key, nil)
	if err != nil || !ok {
		t.Fatalf("record of %s: ok=%v err=%v", key, ok, err)
	}
	return rec[recordHeader+len(key):]
}

func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "results", "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// copyStore copies a data directory's journal and segments to a fresh one.
func copyStore(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dst, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"journal.jsonl", "results"} {
		names, _ := filepath.Glob(filepath.Join(src, rel, "*"))
		if rel == "journal.jsonl" {
			names = []string{filepath.Join(src, rel)}
		}
		for _, name := range names {
			raw, err := os.ReadFile(name)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dst, rel, filepath.Base(name))
			if rel == "journal.jsonl" {
				out = filepath.Join(dst, rel)
			}
			if err := os.WriteFile(out, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// checkServes asserts that s serves exactly the sample results want, in
// write order.
func checkServes(t *testing.T, s *Store, want []int) {
	t.Helper()
	var keys []string
	for _, i := range want {
		keys = append(keys, sampleKey(i))
		res, ok, err := s.GetResult(sampleKey(i))
		if err != nil || !ok || !reflect.DeepEqual(res, sampleResult(i)) {
			t.Fatalf("result %d: ok=%v err=%v", i, ok, err)
		}
	}
	if got := s.RecentResultKeys(0); !reflect.DeepEqual(got, keys) {
		t.Fatalf("stored keys %v, want %v", got, keys)
	}
}

// TestResultLogTornTail cuts the head segment at every byte offset of its
// last record — a crash mid-append. Open must serve every whole record,
// drop the torn one, and the next PutResult must append cleanly after the
// last whole record.
func TestResultLogTornTail(t *testing.T) {
	shrinkSegments(t, 3)
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // segments [0 1 2] [3 4]
		if err := s.PutResult(sampleKey(i), sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs := segmentFiles(t, dir)
	if len(segs) != 2 {
		t.Fatalf("segments %v, want 2", segs)
	}
	info, err := os.Stat(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	end := info.Size()
	start := end - recordSize(t, sampleKey(4), sampleResult(4))
	for cut := start; cut < end; cut++ {
		crash := copyStore(t, dir)
		head := filepath.Join(crash, "results", filepath.Base(segs[1]))
		if err := os.Truncate(head, cut); err != nil {
			t.Fatal(err)
		}
		s, err := Open(crash, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		checkServes(t, s, []int{0, 1, 2, 3})
		if s.HasResult(sampleKey(4)) {
			t.Fatalf("cut at %d: the torn record is indexed", cut)
		}
		if err := s.PutResult(sampleKey(5), sampleResult(5)); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		s.Close()
		s, err = Open(crash, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("cut at %d, reopened after an append: %v", cut, err)
		}
		checkServes(t, s, []int{0, 1, 2, 3, 5})
		s.Close()
		os.RemoveAll(crash)
	}
}

// TestResultLogCorruptSegment: a flipped byte anywhere in a segment older
// than the head is corruption, not a torn write, and fails Open loudly —
// as a corrupt interior journal line does. The same byte flipped in the
// head's last record is indistinguishable from a torn write and drops
// that record alone.
func TestResultLogCorruptSegment(t *testing.T) {
	shrinkSegments(t, 3)
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // segments [0 1 2] [3 4]
		if err := s.PutResult(sampleKey(i), sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs := segmentFiles(t, dir)
	flip := func(name string, at int64) string {
		crash := copyStore(t, dir)
		path := filepath.Join(crash, "results", filepath.Base(name))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[at] ^= 0x20
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return crash
	}
	first := recordSize(t, sampleKey(0), sampleResult(0))
	// A header byte, a key byte and a body byte of the first, a middle and
	// the last record of the old segment.
	for _, at := range []int64{0, 5, recordHeader + 9, first - 1, first + 30, 2*first + 3} {
		crash := flip(segs[0], at)
		if s, err := Open(crash, Options{Sync: SyncNone}); err == nil || !strings.Contains(err.Error(), "corrupt result segment") {
			if s != nil {
				s.Close()
			}
			t.Fatalf("flipped byte %d of the old segment: Open = %v, want the corruption error", at, err)
		}
		os.RemoveAll(crash)
	}
	info, err := os.Stat(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	crash := flip(segs[1], info.Size()-2)
	s, err = Open(crash, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkServes(t, s, []int{0, 1, 2, 3})
}

// TestResultLogGCRace runs PutResult, GetResult and HasResult from many
// goroutines while Compact drops segments under them. A result a live
// record references must never miss and never error.
func TestResultLogGCRace(t *testing.T) {
	shrinkSegments(t, 4)
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncNone, MaxResults: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var live []string
	for i := 0; i < 6; i++ {
		live = append(live, sampleKey(i))
		if err := s.PutResult(sampleKey(i), sampleResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A done sweep references its points' results.
	for _, ev := range []Event{
		{T: EvSubmitted, Job: "job-00000001", At: tstamp(1), Key: sampleKey(99), Points: len(live)},
		{T: EvDone, Job: "job-00000001", At: tstamp(2), Results: live},
	} {
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	const writers, readers, puts = 4, 4, 150
	var writing, reading sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, writers+readers+1)
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < puts; i++ {
				key := fmt.Sprintf("sha256:%032x%032x", w+1, i)
				if err := s.PutResult(key, sampleResult(i)); err != nil {
					errs <- err
					return
				}
				s.GetResult(key) // may already be collected
			}
		}()
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for n := 0; !done.Load(); n++ {
				i := n % len(live)
				if !s.HasResult(live[i]) {
					errs <- fmt.Errorf("HasResult(%s) = false", live[i])
					return
				}
				res, ok, err := s.GetResult(live[i])
				if err != nil || !ok || !reflect.DeepEqual(res, sampleResult(i)) {
					errs <- fmt.Errorf("GetResult(%s): ok=%v err=%v", live[i], ok, err)
					return
				}
			}
		}()
	}
	reading.Add(1)
	go func() {
		defer reading.Done()
		for !done.Load() {
			if err := s.Compact(); err != nil {
				errs <- err
				return
			}
		}
	}()
	writing.Wait() // the writers decide when the run ends
	done.Store(true)
	reading.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if errs := s.met.errors.Value(); errs != 0 {
		t.Fatalf("store errors: %d", errs)
	}
	if n := len(segmentFiles(t, dir)); n > 4 {
		t.Fatalf("%d segments left after GC", n)
	}
	for i, k := range live {
		if res, ok, err := s.GetResult(k); err != nil || !ok || !reflect.DeepEqual(res, sampleResult(i)) {
			t.Fatalf("after the run, %s: ok=%v err=%v", k, ok, err)
		}
	}
}

// FuzzResultLogOpen: arbitrary bytes as an old segment and the head give
// Open either an error or an index whose every entry reads back whole —
// and after which appending and reopening still work. It must never
// panic, and never allocate more than the segments hold.
func FuzzResultLogOpen(f *testing.F) {
	rec := func(i int) []byte {
		key := sampleKey(i)
		r, err := appendResult(append(make([]byte, recordHeader), key...), sampleResult(i))
		if err != nil {
			f.Fatal(err)
		}
		if err := sealRecord(r, len(key)); err != nil {
			f.Fatal(err)
		}
		return r
	}
	two := append(rec(1), rec(2)...)
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte(nil), two)
	f.Add(rec(3), two[:len(two)-7])
	f.Add(two, []byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, old, head []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
			t.Fatal(err)
		}
		write := func(id int, raw []byte) {
			if err := os.WriteFile(filepath.Join(dir, "results", segmentName(id)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(old) > 0 {
			write(1, old)
		}
		write(2, head)
		s, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			if len(old) == 0 {
				t.Fatalf("a lone head segment failed Open: %v", err)
			}
			return
		}
		keys := s.RecentResultKeys(0)
		for _, k := range keys {
			body := storedBody(t, s, k)
			if _, ok, err := s.GetResult(k); !ok && json.Unmarshal(body, new(result.Result)) == nil {
				t.Fatalf("GetResult(%s): ok=%v err=%v on a body that decodes", k, ok, err)
			}
		}
		fresh := fmt.Sprintf("sha256:%064x", 1<<40)
		if s.HasResult(fresh) {
			return
		}
		if err := s.PutResult(fresh, sampleResult(1)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s, err = Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		defer s.Close()
		if got, want := s.RecentResultKeys(0), append(keys, fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened keys %v, want %v", got, want)
		}
	})
}
