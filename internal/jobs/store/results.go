package store

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jsonenc"
	"repro/internal/result"
)

// checkResultKey accepts a content address, "sha256:<hex>".
func checkResultKey(key string) error {
	digest, ok := strings.CutPrefix(key, "sha256:")
	if !ok || digest == "" {
		return fmt.Errorf("store: result key %q lacks sha256: prefix", key)
	}
	if len(digest)%2 != 0 || strings.IndexFunc(digest, func(c rune) bool {
		return !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F')
	}) >= 0 {
		return fmt.Errorf("store: result key %q is not hex", key)
	}
	return nil
}

// PutResult appends the result to the result log under its content
// address. A key already stored is a no-op. It runs without s.mu: the
// encoding needs no lock at all, and the log serializes its appends under
// its own small mutex — holding the store lock across a write and an
// fsync would stall every journal append behind it. Under SyncAlways and
// SyncTerminal the record is fsynced before PutResult returns, so a done
// line written afterwards never references a result a machine crash can
// lose.
func (s *Store) PutResult(key string, res *result.Result) error {
	if err := checkResultKey(key); err != nil {
		s.met.errors.Inc()
		return err
	}
	if s.results.has(key) {
		return nil
	}
	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	rec := append((*buf)[:0], make([]byte, recordHeader)...)
	rec = append(rec, key...)
	rec, err := appendResult(rec, res)
	*buf = rec
	if err == nil {
		err = sealRecord(rec, len(key))
	}
	if err != nil {
		s.met.errors.Inc()
		return fmt.Errorf("store: result %s: %w", key, err)
	}
	if err := s.results.put(key, rec, nil); err != nil {
		s.met.errors.Inc()
		return err
	}
	return nil
}

// resultBufs recycles the record buffers (*[]byte) of PutResult and
// GetResult: a result is tens of kilobytes and one is written per executed
// job or sweep point.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendResult appends the stored form of res: byte for byte what
// encoding/json's Marshal prints for it — the Go field names of
// result.Result, result.Entry and qdt.Value in declaration order, every
// field present, null for a nil Entries, Bools, Spins or Meta — which is
// the format of every stored result since the store exists, as a result
// file before the result log and as a record body since. It carries no
// version, and GetResult, which decodes it with encoding/json, reads
// bodies written by either encoder. Only Meta, engine-specific and
// open-ended, still goes through encoding/json. A NaN or infinite Float or
// Energy has no JSON form and is an error, as it is there; unlike the /v1
// document this form prints both fields of every entry, whatever its
// semantics. TestStoredFormMatchesEncodingJSON and the fuzz target
// jobs.FuzzResultEncoding hold the two encoders together.
func appendResult(dst []byte, res *result.Result) ([]byte, error) {
	if res == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"Engine":`...)
	dst = jsonenc.AppendString(dst, res.Engine)
	dst = append(dst, `,"Samples":`...)
	dst = strconv.AppendInt(dst, int64(res.Samples), 10)
	dst = append(dst, `,"Entries":`...)
	if res.Entries == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range res.Entries {
			e := &res.Entries[i]
			if !jsonenc.Finite(e.Value.Float) {
				return dst, fmt.Errorf("Entries[%d].Value.Float is %v, which JSON cannot carry", i, e.Value.Float)
			}
			if !jsonenc.Finite(e.Energy) {
				return dst, fmt.Errorf("Entries[%d].Energy is %v, which JSON cannot carry", i, e.Energy)
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Bitstring":`...)
			dst = jsonenc.AppendString(dst, e.Bitstring)
			dst = append(dst, `,"Index":`...)
			dst = strconv.AppendUint(dst, e.Index, 10)
			dst = append(dst, `,"Value":{"Semantics":`...)
			dst = jsonenc.AppendString(dst, string(e.Value.Semantics))
			dst = append(dst, `,"Int":`...)
			dst = strconv.AppendInt(dst, e.Value.Int, 10)
			dst = append(dst, `,"Float":`...)
			dst = jsonenc.AppendFloat(dst, e.Value.Float)
			dst = append(dst, `,"Bools":`...)
			if e.Value.Bools == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for k, b := range e.Value.Bools {
					if k > 0 {
						dst = append(dst, ',')
					}
					dst = strconv.AppendBool(dst, b)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, `,"Spins":`...)
			if e.Value.Spins == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for k, s := range e.Value.Spins {
					if k > 0 {
						dst = append(dst, ',')
					}
					dst = strconv.AppendInt(dst, int64(s), 10)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, `,"Index":`...)
			dst = strconv.AppendUint(dst, e.Value.Index, 10)
			dst = append(dst, `},"Count":`...)
			dst = strconv.AppendInt(dst, int64(e.Count), 10)
			dst = append(dst, `,"Energy":`...)
			dst = jsonenc.AppendFloat(dst, e.Energy)
			dst = append(dst, `,"HasEnergy":`...)
			dst = strconv.AppendBool(dst, e.HasEnergy)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"Meta":`...)
	if res.Meta == nil {
		dst = append(dst, "null"...)
	} else {
		meta, err := json.Marshal(res.Meta)
		if err != nil {
			return dst, fmt.Errorf("Meta: %w", err)
		}
		dst = append(dst, meta...)
	}
	return append(dst, '}'), nil
}

// GetResult loads a result by content address; ok=false when the log
// holds no record for the key.
func (s *Store) GetResult(key string) (*result.Result, bool, error) {
	if err := checkResultKey(key); err != nil {
		return nil, false, err
	}
	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	rec, ok, err := s.results.get(key, (*buf)[:0])
	*buf = rec
	if err != nil || !ok {
		return nil, false, err
	}
	var res result.Result
	if err := json.Unmarshal(rec[recordHeader+len(key):], &res); err != nil {
		return nil, false, fmt.Errorf("store: result %s: %w", key, err)
	}
	return &res, true, nil
}

// HasResult reports whether the log holds a result for the key.
func (s *Store) HasResult(key string) bool { return s.results.has(key) }

// RecentResultKeys returns up to n result content addresses ordered
// oldest→newest by write order, the order the pool feeds its LRU on boot
// so the most recent result ends up most-recently-used (n <= 0: all).
func (s *Store) RecentResultKeys(n int) []string { return s.results.keys(n) }

// gcResults drops whole result segments, oldest first, while more than
// Options.MaxResults results are stored; results a live record references
// are re-appended first and so survive.
func (s *Store) gcResults() error {
	if s.opts.MaxResults < 0 {
		return nil
	}
	referenced := map[string]bool{}
	for _, r := range s.records {
		if r.ResultKey != "" {
			referenced[r.ResultKey] = true
		}
		if r.Key != "" {
			referenced[r.Key] = true
		}
		// A done sweep record references every per-point result.
		for _, k := range r.Results {
			referenced[k] = true
		}
	}
	return s.results.gc(s.opts.MaxResults, referenced)
}
