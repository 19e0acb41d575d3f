package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The result log keeps every result in append-only segments,
// results/seg-%08d.log, and finds them through an in-memory index from
// content address to record. A record is
//
//	key length  uint32, little-endian
//	body length uint32, little-endian
//	CRC-32C     uint32, little-endian, over key and body
//	key         "sha256:<hex>"
//	body        the stored form of the result (appendResult)
//
// Appends go to the last segment, the head, one after the other under
// resultLog.wmu, so a crash can tear only the head's last record. A new
// head starts once a record would take the current one past
// segmentBytes; a record larger than that gets a segment of its own.
const (
	segmentBytes = 64 << 20
	recordHeader = 12
)

// segmentLimit is segmentBytes; tests shrink it to exercise rotation and
// garbage collection on a handful of records.
var segmentLimit int64 = segmentBytes

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segmentName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

// sealRecord fills in the header of rec, which holds recordHeader spare
// bytes, then a key of keyLen bytes, then the body.
func sealRecord(rec []byte, keyLen int) error {
	body := len(rec) - recordHeader - keyLen
	if body > math.MaxUint32 {
		return fmt.Errorf("result of %d bytes exceeds the record format's 4 GiB", body)
	}
	binary.LittleEndian.PutUint32(rec[0:], uint32(keyLen))
	binary.LittleEndian.PutUint32(rec[4:], uint32(body))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(rec[recordHeader:], castagnoli))
	return nil
}

// checkRecord verifies that rec is one whole record stored under key.
func checkRecord(rec []byte, key string) error {
	if len(rec) < recordHeader+len(key) {
		return errors.New("short record")
	}
	keyLen := int64(binary.LittleEndian.Uint32(rec[0:]))
	bodyLen := int64(binary.LittleEndian.Uint32(rec[4:]))
	if keyLen != int64(len(key)) || recordHeader+keyLen+bodyLen != int64(len(rec)) {
		return errors.New("record lengths disagree with the index")
	}
	if crc32.Checksum(rec[recordHeader:], castagnoli) != binary.LittleEndian.Uint32(rec[8:]) {
		return errors.New("checksum mismatch")
	}
	if string(rec[recordHeader:recordHeader+len(key)]) != key {
		return errors.New("record holds another key")
	}
	return nil
}

type segment struct {
	id   int
	f    *os.File
	size int64 // bytes of whole records: the head's append offset, under wmu
	// users counts the reads and fsyncs in flight on f. A retired
	// segment leaves the index first, so none can start afterwards, and
	// its handle closes once users drains.
	users sync.WaitGroup
}

type recordLoc struct {
	seg *segment
	off int64
	n   int64 // record length, header included
}

type resultLog struct {
	dir  string
	sync bool // fsync each append before it returns

	// wmu serializes appends; head is the segment they go to.
	wmu  sync.Mutex
	head *segment

	// mu guards the index, the segment list (oldest first, the head
	// last) and closed. No I/O happens under it.
	mu     sync.RWMutex
	index  map[string]recordLoc
	segs   []*segment
	closed bool
}

var errResultsClosed = errors.New("store: result log closed")

// openResultLog rebuilds the index from the segments in dir, truncates a
// torn tail of the head segment, and imports result files an older build
// left in dir. Any other damage fails it.
func openResultLog(dir string, sync bool) (*resultLog, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &resultLog{dir: dir, sync: sync, index: map[string]recordLoc{}}
	var ids []int
	var legacy []os.DirEntry
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if num, ok := strings.CutPrefix(strings.TrimSuffix(name, ".log"), "seg-"); ok {
			if id, err := strconv.Atoi(num); err == nil && segmentName(id) == name {
				ids = append(ids, id)
			}
		} else if strings.HasSuffix(name, ".json") {
			legacy = append(legacy, de)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		if err := l.load(id, i == len(ids)-1); err != nil {
			l.close()
			return nil, err
		}
	}
	if len(l.segs) > 0 {
		l.head = l.segs[len(l.segs)-1]
	}
	if err := l.importFiles(legacy); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// load scans one segment into the index. The first record that does not
// check out ends the scan: in the head segment it is a torn tail, cut off
// so that appends resume after the last whole record; in any other
// segment it is corruption, and an error.
func (l *resultLog) load(id int, head bool) error {
	name := segmentName(id)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, f: f}
	l.segs = append(l.segs, seg)
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := info.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), int(min(size, 1<<20)))
	var hdr [recordHeader]byte
	var buf []byte
	var bad string
	off := int64(0)
	for off < size && bad == "" {
		if size-off < recordHeader {
			bad = "short header"
			break
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("store: %s: %w", name, err)
		}
		keyLen := int64(binary.LittleEndian.Uint32(hdr[0:]))
		n := keyLen + int64(binary.LittleEndian.Uint32(hdr[4:]))
		// The length check comes before the allocation: a record is never
		// read past the end of its segment.
		if keyLen == 0 || recordHeader+n > size-off {
			bad = "record overruns the segment"
			break
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("store: %s: %w", name, err)
		}
		key := string(buf[:keyLen])
		switch {
		case crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[8:]):
			bad = "checksum mismatch"
		case checkResultKey(key) != nil:
			bad = "invalid key"
		default:
			// A later record of the same key (a re-append) supersedes it.
			l.index[key] = recordLoc{seg: seg, off: off, n: recordHeader + n}
			off += recordHeader + n
		}
	}
	if bad != "" {
		if !head {
			return fmt.Errorf("store: corrupt result segment %s at byte %d: %s", name, off, bad)
		}
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating torn result segment %s: %w", name, err)
		}
	}
	seg.size = off
	return nil
}

// importFiles moves results/<hex>.json files, the one-file-per-result
// layout of older builds, into the log, oldest modification time first,
// and removes them once the log holding them is durable.
func (l *resultLog) importFiles(des []os.DirEntry) error {
	type file struct {
		name, key string
		mod       int64
	}
	var files []file
	for _, de := range des {
		key := "sha256:" + strings.TrimSuffix(de.Name(), ".json")
		info, err := de.Info()
		if checkResultKey(key) != nil || err != nil {
			continue
		}
		files = append(files, file{de.Name(), key, info.ModTime().UnixNano()})
	}
	if len(files) == 0 {
		return nil
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	var rec []byte
	for _, f := range files {
		body, err := os.ReadFile(filepath.Join(l.dir, f.name))
		if err != nil {
			return fmt.Errorf("store: importing result file: %w", err)
		}
		rec = append(append(append(rec[:0], make([]byte, recordHeader)...), f.key...), body...)
		if err := sealRecord(rec, len(f.key)); err != nil {
			return fmt.Errorf("store: importing result file %s: %w", f.name, err)
		}
		if _, err := l.write(f.key, rec, nil, false); err != nil {
			return err
		}
	}
	if l.sync {
		for _, seg := range l.segs {
			if err := seg.f.Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
	}
	for _, f := range files {
		os.Remove(filepath.Join(l.dir, f.name))
	}
	if l.sync {
		syncDir(l.dir)
	}
	return nil
}

// put appends a sealed record and, under a syncing policy, fsyncs it
// before returning.
func (l *resultLog) put(key string, rec []byte, from *segment) error {
	seg, err := l.write(key, rec, from, l.sync)
	if err != nil || seg == nil || !l.sync {
		return err
	}
	defer seg.users.Done()
	if err := seg.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// write appends rec, the sealed record of key, to the head segment and
// publishes it in the index — unless the key is already indexed outside
// from (nil: anywhere), when it writes nothing and returns a nil segment.
// With pin the returned segment counts one more user, for the caller's
// fsync, which the caller ends.
func (l *resultLog) write(key string, rec []byte, from *segment, pin bool) (*segment, error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.RLock()
	loc, dup := l.index[key]
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		return nil, errResultsClosed
	}
	if dup && loc.seg != from {
		return nil, nil
	}
	seg, err := l.headFor(int64(len(rec)))
	if err != nil {
		return nil, err
	}
	off := seg.size
	if _, err := seg.f.WriteAt(rec, off); err != nil {
		seg.f.Truncate(off) // keep the segment's records back to back
		return nil, fmt.Errorf("store: %w", err)
	}
	seg.size += int64(len(rec))
	l.mu.Lock()
	l.index[key] = recordLoc{seg: seg, off: off, n: int64(len(rec))}
	l.mu.Unlock()
	if pin {
		seg.users.Add(1) // the head is not retired while wmu is held
	}
	return seg, nil
}

// headFor returns the segment a record of n bytes goes to, starting a new
// one when it would take the head past segmentLimit. The caller holds wmu.
func (l *resultLog) headFor(n int64) (*segment, error) {
	if h := l.head; h != nil && (h.size == 0 || h.size+n <= segmentLimit) {
		return h, nil
	}
	id := 1
	if l.head != nil {
		id = l.head.id + 1
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if l.sync {
		syncDir(l.dir)
	}
	seg := &segment{id: id, f: f}
	l.mu.Lock()
	l.segs = append(l.segs, seg)
	l.mu.Unlock()
	l.head = seg
	return seg, nil
}

// get reads the record of key into dst (reusing its capacity) and checks
// it. ok is false when the key is not indexed.
func (l *resultLog) get(key string, dst []byte) (rec []byte, ok bool, err error) {
	l.mu.RLock()
	loc, ok := l.index[key]
	if ok {
		loc.seg.users.Add(1)
	}
	l.mu.RUnlock()
	if !ok {
		return dst, false, nil
	}
	defer loc.seg.users.Done()
	if int64(cap(dst)) < loc.n {
		dst = make([]byte, loc.n)
	}
	rec = dst[:loc.n]
	if _, err := loc.seg.f.ReadAt(rec, loc.off); err != nil {
		return rec, false, fmt.Errorf("store: result %s: %w", key, err)
	}
	if err := checkRecord(rec, key); err != nil {
		return rec, false, fmt.Errorf("store: result %s in %s at byte %d: %v", key, segmentName(loc.seg.id), loc.off, err)
	}
	return rec, true, nil
}

func (l *resultLog) has(key string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.index[key]
	return ok
}

func (l *resultLog) len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.index)
}

// keys returns up to n keys in write order, oldest first (n <= 0: all).
func (l *resultLog) keys(n int) []string {
	type entry struct {
		key string
		loc recordLoc
	}
	l.mu.RLock()
	entries := make([]entry, 0, len(l.index))
	for k, loc := range l.index {
		entries = append(entries, entry{k, loc})
	}
	l.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].loc, entries[j].loc
		if a.seg.id != b.seg.id {
			return a.seg.id < b.seg.id
		}
		return a.off < b.off
	})
	if n > 0 && len(entries) > n {
		entries = entries[len(entries)-n:]
	}
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys
}

// gc drops segments but the head, whole and oldest first, while more
// than limit results are indexed — and only a segment whose unreferenced
// results number no more than the excess, so the limit newest always
// survive. The results in it that referenced names are re-appended (and
// fsynced under a syncing policy) before it goes; a segment holding
// nothing else is left alone, as dropping it would free nothing. Calls
// must not overlap.
func (l *resultLog) gc(limit int, referenced map[string]bool) error {
	l.mu.RLock()
	old := append([]*segment(nil), l.segs[:max(len(l.segs)-1, 0)]...)
	l.mu.RUnlock()
	for _, seg := range old {
		var keep []string
		unreferenced := 0
		l.mu.RLock()
		excess := len(l.index) - limit
		for k, loc := range l.index {
			switch {
			case loc.seg != seg:
			case referenced[k]:
				keep = append(keep, k)
			default:
				unreferenced++
			}
		}
		l.mu.RUnlock()
		if unreferenced > excess || excess <= 0 {
			return nil
		}
		if unreferenced == 0 {
			continue
		}
		var rec []byte
		for _, k := range keep {
			var ok bool
			var err error
			if rec, ok, err = l.get(k, rec); err != nil {
				return err
			} else if ok {
				if err := l.put(k, rec, seg); err != nil {
					return err
				}
			}
		}
		// Nothing is appended to a segment that is not the head, so the
		// only records left in seg are the unreferenced ones counted above.
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return errResultsClosed
		}
		for k, loc := range l.index {
			if loc.seg == seg {
				delete(l.index, k)
			}
		}
		l.segs = slices.DeleteFunc(l.segs, func(s *segment) bool { return s == seg })
		l.mu.Unlock()
		seg.users.Wait()
		seg.f.Close()
		if err := os.Remove(filepath.Join(l.dir, segmentName(seg.id))); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// close empties the index and closes every segment once the reads and
// fsyncs in flight on it are done. Appends after it fail.
func (l *resultLog) close() {
	l.wmu.Lock()
	l.mu.Lock()
	segs := l.segs
	l.segs, l.index, l.head, l.closed = nil, map[string]recordLoc{}, nil, true
	l.mu.Unlock()
	l.wmu.Unlock()
	for _, seg := range segs {
		seg.users.Wait()
		seg.f.Close()
	}
}
