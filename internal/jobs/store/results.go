package store

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jsonenc"
	"repro/internal/result"
)

// resultPath maps a content address ("sha256:<hex>") to its file. The hex
// digest is validated so a hostile key cannot escape the results
// directory.
func (s *Store) resultPath(key string) (string, error) {
	digest, ok := strings.CutPrefix(key, "sha256:")
	if !ok || digest == "" {
		return "", fmt.Errorf("store: result key %q lacks sha256: prefix", key)
	}
	if _, err := hex.DecodeString(digest); err != nil {
		return "", fmt.Errorf("store: result key %q is not hex", key)
	}
	return filepath.Join(s.dir, "results", digest+".json"), nil
}

// PutResult writes the result under its content address via temp file +
// atomic rename (fsynced unless SyncNone). Writing the same key twice is
// idempotent. It deliberately runs without s.mu: everything it touches
// is immutable (s.dir, s.opts) or atomic (s.met), concurrent writers of
// the same key race benignly (identical content, atomic rename), and
// holding the store lock across a file write + fsync would stall every
// journal append behind the result fsync.
func (s *Store) PutResult(key string, res *result.Result) error {
	path, err := s.resultPath(key)
	if err != nil {
		s.met.errors.Inc()
		return err
	}
	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	if *buf, err = appendResult((*buf)[:0], res); err != nil {
		s.met.errors.Inc()
		return fmt.Errorf("store: result %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "result-*.tmp")
	if err != nil {
		s.met.errors.Inc()
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(*buf); err != nil {
		tmp.Close()
		s.met.errors.Inc()
		return fmt.Errorf("store: %w", err)
	}
	if s.opts.Sync != SyncNone {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			s.met.errors.Inc()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		s.met.errors.Inc()
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		s.met.errors.Inc()
		return fmt.Errorf("store: %w", err)
	}
	if s.opts.Sync != SyncNone {
		syncDir(filepath.Dir(path))
	}
	return nil
}

// resultBufs recycles PutResult's encode buffers (*[]byte): a result file
// is tens of kilobytes and one is written per executed job or sweep point.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendResult appends the stored form of res: byte for byte what
// encoding/json's Marshal prints for it — the Go field names of
// result.Result, result.Entry and qdt.Value in declaration order, every
// field present, null for a nil Entries, Bools, Spins or Meta — which is
// the format of every result file since the store exists. The file
// carries no version, and GetResult, which decodes it with encoding/json,
// reads files written by either encoder. Only Meta, engine-specific and
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

// GetResult loads a result by content address; ok=false when no file
// exists for the key.
func (s *Store) GetResult(key string) (*result.Result, bool, error) {
	path, err := s.resultPath(key)
	if err != nil {
		return nil, false, err
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	var res result.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, false, fmt.Errorf("store: result %s: %w", key, err)
	}
	return &res, true, nil
}

// HasResult reports whether a result file exists for the key.
func (s *Store) HasResult(key string) bool {
	path, err := s.resultPath(key)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// RecentResultKeys returns up to n result content addresses ordered
// oldest→newest by file modification time, the order the pool feeds its
// LRU on boot so the most recent result ends up most-recently-used
// (n <= 0: all).
func (s *Store) RecentResultKeys(n int) []string {
	type entry struct {
		key string
		mod int64
	}
	var entries []entry
	for _, de := range s.resultDirEntries() {
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entry{"sha256:" + strings.TrimSuffix(de.Name(), ".json"), info.ModTime().UnixNano()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mod < entries[j].mod })
	if n > 0 && len(entries) > n {
		entries = entries[len(entries)-n:]
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys
}

func (s *Store) resultDirEntries() []os.DirEntry {
	des, err := os.ReadDir(filepath.Join(s.dir, "results"))
	if err != nil {
		return nil
	}
	out := des[:0]
	for _, de := range des {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			out = append(out, de)
		}
	}
	return out
}

// gcResults deletes unreferenced result files beyond Options.MaxResults,
// oldest first. Files referenced by a live record are always kept.
func (s *Store) gcResults() {
	if s.opts.MaxResults < 0 {
		return
	}
	referenced := map[string]bool{}
	for _, r := range s.records {
		if r.ResultKey != "" {
			referenced[r.ResultKey] = true
		}
		if r.Key != "" {
			referenced[r.Key] = true
		}
		// A done sweep record references every per-point result file.
		for _, k := range r.Results {
			referenced[k] = true
		}
	}
	keys := s.RecentResultKeys(0) // oldest first
	excess := len(keys) - s.opts.MaxResults
	for _, key := range keys {
		if excess <= 0 {
			break
		}
		if referenced[key] {
			continue
		}
		if path, err := s.resultPath(key); err == nil && os.Remove(path) == nil {
			excess--
		}
	}
}
