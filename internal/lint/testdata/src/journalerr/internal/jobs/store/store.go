// Package store is a journalerr fixture mirroring the journal store's
// package-path suffix.
package store

import "os"

// Store mirrors the real journal store's mutator surface.
type Store struct{ f *os.File }

// Append is a journal mutator whose error is the durability verdict.
func (s *Store) Append(b []byte) error {
	_, err := s.f.Write(b)
	return err
}

// Sync is the durability barrier.
func (s *Store) Sync() error { return s.f.Sync() }

// Write is the first half of Append: the line and the number to Commit.
func (s *Store) Write(b []byte) (uint64, error) {
	n, err := s.f.Write(b)
	return uint64(n), err
}

// DropSecond keeps the sequence number and discards the verdict.
func DropSecond(s *Store) uint64 {
	seq, _ := s.Write(nil) // want `journalerr: error from Store\.Write assigned to _`
	return seq
}

// KeepSecond is the near-miss: the number is dropped, the verdict kept.
func KeepSecond(s *Store) error {
	_, err := s.Write(nil)
	return err
}

// DropStatement discards the verdict by calling as a statement.
func DropStatement(s *Store) {
	s.Append(nil) // want `journalerr: error from Store\.Append discarded by calling as a statement`
}

// DropBlank discards it explicitly.
func DropBlank(s *Store) {
	_ = s.Sync() // want `journalerr: error from Store\.Sync assigned to _`
}

// Handled is the near-miss: the verdict is propagated.
func Handled(s *Store) error {
	if err := s.Append(nil); err != nil {
		return err
	}
	return s.Sync()
}

// Suppressed carries the reasoned annotation the driver honors.
func Suppressed(s *Store) {
	//lint:ignore journalerr fixture: the recovery story would be documented here
	_ = s.Sync()
}
