package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs/store"
)

// journalFile is a store under a Table whose journal.jsonl the test reads
// back: what it checks is the file, in file order.
type journalFile struct {
	dir string
	st  *store.Store
}

func openJournal(t *testing.T, opts store.Options) *journalFile {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &journalFile{dir, st}
}

// events reads the journal file as it is on disk right now.
func (f *journalFile) events(t *testing.T) []store.Event {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(f.dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var evs []store.Event
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev store.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func eventTypes(evs []store.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.T + " " + ev.Job
	}
	return out
}

// TestTransitions walks the whole state machine: every (from, to) pair.
// A legal move writes exactly the journal line the lifecycle says (running
// → queued alone writes none), advances the revision once (a record is born
// at revision 0), stamps the right timestamp with the given time, logs the
// move's span, and closes Done iff it is terminal. An illegal one answers
// ErrConflict, writes nothing and changes nothing. Past the table's bound
// the oldest terminal record is evicted into the same journal, its forget
// line after its own terminal line and after that of the move that evicted
// it. The journal is a real store's file, read back after every move.
func TestTransitions(t *testing.T) {
	t.Run("retention", testRetention)
	states := []State{"", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
	type outcome struct{ stage, event string }
	legal := map[move]outcome{
		{"", StateQueued}:             {"queued", store.EvSubmitted},
		{StateQueued, StateRunning}:   {"started", store.EvStarted},
		{StateQueued, StateDone}:      {"done", store.EvDone},
		{StateQueued, StateFailed}:    {"failed", store.EvFailed},
		{StateQueued, StateCanceled}:  {"canceled", store.EvCanceled},
		{StateRunning, StateDone}:     {"done", store.EvDone},
		{StateRunning, StateFailed}:   {"failed", store.EvFailed},
		{StateRunning, StateCanceled}: {"canceled", store.EvCanceled},
		{StateRunning, StateQueued}:   {"detached", ""},
	}
	// path is how a fresh record reaches each state.
	path := map[State][]State{
		"":            nil,
		StateQueued:   {StateQueued},
		StateRunning:  {StateQueued, StateRunning},
		StateDone:     {StateQueued, StateRunning, StateDone},
		StateFailed:   {StateQueued, StateFailed},
		StateCanceled: {StateQueued, StateCanceled},
	}
	boom := errors.New("boom")
	for _, from := range states {
		for _, to := range states {
			t.Run(fmt.Sprintf("%s→%s", from, to), func(t *testing.T) {
				var mu sync.Mutex
				rec := openJournal(t, store.Options{Sync: store.SyncNone})
				tab := NewTable[*job](&mu, -1, rec.st)
				j := &job{Record: Record{Trace: "tr", Key: "k", Engine: "e", Shards: 3, Points: 5, done: make(chan struct{})}}
				for _, s := range path[from] {
					if err := tab.Transition(j, s, Detail{Err: boom}); err != nil {
						t.Fatalf("setup →%s: %v", s, err)
					}
				}
				before, events := j.Record, len(rec.events(t))
				at := time.Unix(1700000000, 0)
				err := tab.Transition(j, to, Detail{At: at, Dur: time.Second, Note: "why", Err: boom, Ev: store.Event{Result: "addr"}})
				evs := rec.events(t)

				want, ok := legal[move{from, to}]
				if !ok {
					if !errors.Is(err, ErrConflict) {
						t.Fatalf("illegal move answered %v, want ErrConflict", err)
					}
					if len(evs) != events {
						t.Fatalf("illegal move emitted %v", eventTypes(evs[events:]))
					}
					after := j.Record
					if after.State != before.State || after.rev.N() != before.rev.N() || len(after.Spans) != len(before.Spans) ||
						after.Submitted != before.Submitted || after.Started != before.Started || after.Finished != before.Finished || after.Err != before.Err {
						t.Fatalf("illegal move changed the record:\nbefore %+v\nafter  %+v", before, after)
					}
					if closed(j.done) != from.Terminal() {
						t.Fatalf("illegal move: done closed = %v for a record that was %q", closed(j.done), from)
					}
					return
				}
				if err != nil {
					t.Fatalf("legal move refused: %v", err)
				}
				if j.State != to {
					t.Fatalf("state %q, want %q", j.State, to)
				}
				if want.event == "" {
					if len(evs) != events {
						t.Fatalf("emitted %v, want nothing", eventTypes(evs[events:]))
					}
				} else {
					if len(evs) != events+1 {
						t.Fatalf("emitted %d events %v, want exactly one %s", len(evs)-events, eventTypes(evs[events:]), want.event)
					}
					ev := evs[events]
					if ev.T != want.event || ev.Job != j.ID || !ev.At.Equal(at) {
						t.Fatalf("event %+v, want a %s of job %q at %v", ev, want.event, j.ID, at)
					}
					// What the event says beyond its type is read off the record.
					switch want.event {
					case store.EvSubmitted:
						if ev.Trace != "tr" || ev.Key != "k" || ev.Engine != "e" || ev.Points != 5 {
							t.Fatalf("submitted event %+v does not describe the record", ev)
						}
					case store.EvStarted:
						if ev.Shards != 3 {
							t.Fatalf("started event carries shards=%d, want 3", ev.Shards)
						}
					case store.EvDone:
						if ev.Engine != "e" || ev.Result != "addr" {
							t.Fatalf("done event %+v lost the engine or the caller's result address", ev)
						}
					case store.EvFailed:
						if ev.Error != "boom" || j.Err != boom {
							t.Fatalf("failed event error %q, record error %v, want boom", ev.Error, j.Err)
						}
					}
				}
				bump := uint64(1)
				if from == "" {
					bump = 0
				}
				if got := j.rev.N() - before.rev.N(); got != bump {
					t.Fatalf("revision advanced by %d, want %d", got, bump)
				}
				if n := len(j.Spans); n != len(before.Spans)+1 || j.Spans[n-1].Stage != want.stage || j.Spans[n-1].Note != "why" {
					t.Fatalf("span log %+v, want one more span, stage %q note %q", j.Spans, want.stage, "why")
				}
				switch {
				case from == "":
					if !j.Submitted.Equal(at) {
						t.Fatalf("Submitted = %v, want %v", j.Submitted, at)
					}
				case to == StateQueued:
					if !j.Started.IsZero() {
						t.Fatalf("a detached job kept Started = %v", j.Started)
					}
				case to == StateRunning:
					if !j.Started.Equal(at) {
						t.Fatalf("Started = %v, want %v", j.Started, at)
					}
				default:
					if !j.Finished.Equal(at) {
						t.Fatalf("Finished = %v, want %v", j.Finished, at)
					}
				}
				if closed(j.done) != to.Terminal() {
					t.Fatalf("done closed = %v after a move to %q", closed(j.done), to)
				}
			})
		}
	}
}

func testRetention(t *testing.T) {
	var mu sync.Mutex
	rec := openJournal(t, store.Options{Sync: store.SyncNone})
	tab := NewTable[*job](&mu, 2, rec.st)
	var ids []string
	for i := 0; i < 3; i++ {
		j := &job{}
		tab.Add(j, Detail{})
		ids = append(ids, j.ID)
		if err := tab.Transition(j, StateCanceled, Detail{}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"submitted " + ids[0], "canceled " + ids[0],
		"submitted " + ids[1], "canceled " + ids[1],
		"submitted " + ids[2], "canceled " + ids[2], "forget " + ids[0],
	}
	if got := eventTypes(rec.events(t)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	if _, err := tab.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted record still answers: %v", err)
	}
	if tab.Len() != 2 {
		t.Fatalf("table holds %d records, want 2", tab.Len())
	}
}
