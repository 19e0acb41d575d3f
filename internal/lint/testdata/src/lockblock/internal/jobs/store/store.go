// Package store is a lockblock fixture mirroring the journal store's
// package-path suffix, so its own disk calls are in the blocking set.
package store

import (
	"os"
	"sync"
)

// Store mirrors the real journal store's shape.
type Store struct {
	mu sync.Mutex
	f  *os.File
}

// Append is a journal mutator (blocking per the lockblock contract).
func (s *Store) Append(b []byte) error {
	_, err := s.f.Write(b)
	return err
}

// FsyncUnderLock holds the store lock across the durability barrier.
func (s *Store) FsyncUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want `lockblock: \(\*os\.File\)\.Sync \(fsync\) while s\.mu is held`
}

// AppendUnderLock calls a store mutator with the lock held.
func (s *Store) AppendUnderLock(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Append(b) // want `lockblock: journal/store disk call Store\.Append while s\.mu is held`
}

// Write puts a line in the file and returns the number Commit waits on;
// it never fsyncs, so it is not in the blocking set.
func (s *Store) Write(b []byte) (uint64, error) {
	n, err := s.f.Write(b)
	return uint64(n), err
}

// Commit waits for the fsync that covers seq (blocking per the contract).
func (s *Store) Commit(seq uint64) error { return s.f.Sync() }

// SyncOffLock is the near-miss: the lock is released before the
// barrier, the two-phase pattern the contract wants.
func (s *Store) SyncOffLock() error {
	s.mu.Lock()
	s.mu.Unlock()
	return s.f.Sync()
}

// GetResult reads and decodes a result file (blocking per the lockblock
// contract: a millisecond per file, thousands of files for one sweep).
func (s *Store) GetResult(key string) ([]byte, bool, error) {
	raw, err := os.ReadFile(key)
	return raw, err == nil, err
}

// Pool mirrors the job pool's lazily loaded results.
type Pool struct {
	mu    sync.Mutex
	store *Store
	res   map[string][]byte
}

// LoadUnderLock reads a result file with the job table locked: every
// submit, status poll and dequeue waits for the disk.
func (p *Pool) LoadUnderLock(key string) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.res[key] == nil {
		p.res[key], _, _ = p.store.GetResult(key) // want `lockblock: journal/store disk call Store\.GetResult while p\.mu is held`
	}
	return p.res[key]
}

// CommitUnderLock waits for the fsync with the job table locked: every
// reader and mover queues behind the disk.
func (p *Pool) CommitUnderLock(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	seq, err := p.store.Write(b)
	if err != nil {
		return err
	}
	return p.store.Commit(seq) // want `lockblock: journal/store disk call Store\.Commit while p\.mu is held`
}

// WriteThenCommit is the near-miss, the one journaling discipline: the
// line is written inside the critical section, so journal order is move
// order, and the fsync is awaited after it.
func (p *Pool) WriteThenCommit(b []byte) error {
	p.mu.Lock()
	seq, err := p.store.Write(b)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return p.store.Commit(seq)
}

// LoadOffLock is the near-miss, the pattern the pool uses: look under the
// lock, load with it released, retake it to install if still absent.
func (p *Pool) LoadOffLock(key string) []byte {
	p.mu.Lock()
	res := p.res[key]
	p.mu.Unlock()
	if res != nil {
		return res
	}
	loaded, _, _ := p.store.GetResult(key)
	p.mu.Lock()
	if p.res[key] == nil {
		p.res[key] = loaded
	}
	res = p.res[key]
	p.mu.Unlock()
	return res
}
