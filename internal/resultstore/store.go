package resultstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// File layout (all integers little-endian):
//
//	header  = magic[8] | salt uint64                      (16 bytes)
//	frame   = bodyLen uint32 | body | fnv64a(body) uint64
//	body    = key[32] | value
//
// Each frame is appended with one Write on an O_APPEND descriptor, so
// frames from concurrent writers never interleave partially.
const (
	magic      = "STRTRS1\n"
	headerSize = len(magic) + 8
	frameHead  = 4
	frameFoot  = 8

	// maxBody bounds a frame body during recovery scanning: a length
	// word beyond it means the tail is garbage, not a huge record.
	maxBody = 1 << 26

	// Compaction triggers when dead frames waste more than both an
	// absolute floor and the live size (so small stores never churn).
	compactMinWaste = 64 << 10
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv64a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Options configure Open.
type Options struct {
	// Salt is the simulator-version salt (internal/perf.VersionSalt).
	// A store recorded under a different salt is discarded on open.
	Salt uint64
	// NoAutoCompact disables the open-time compaction pass (tests, and
	// callers sharing one file between live processes).
	NoAutoCompact bool
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Entries     int   `json:"entries"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	FileBytes   int64 `json:"file_bytes"`
	LiveBytes   int64 `json:"live_bytes"`
	TailDropped int64 `json:"tail_dropped_bytes,omitempty"`
	Invalidated bool  `json:"invalidated,omitempty"`
	Compactions int64 `json:"compactions,omitempty"`
}

// Store is a persistent content-addressed result log. All methods are
// safe for concurrent use; separate processes may append to the same
// file (each sees the other's entries only after reopening).
type Store struct {
	path string
	salt uint64

	hits   atomic.Int64
	misses atomic.Int64

	mu        sync.RWMutex
	f         *os.File
	index     map[Key]*entry
	fileBytes int64 // header + every frame appended, dead or live
	liveBytes int64 // frames that would survive compaction
	puts      int64
	buf       []byte // frame scratch, reused across Puts

	tailDropped int64
	invalidated bool
	compactions int64
}

// entry is one live value. checked records that a GetChecked check
// passed on exactly these bytes; a superseding Put installs a new,
// unchecked entry, and a reopened store loads every entry unchecked.
type entry struct {
	value   []byte
	checked atomic.Bool
}

func frameSize(valueLen int) int64 {
	return int64(frameHead + KeySize + valueLen + frameFoot)
}

// Open loads (or creates) the store at path. Corrupt or truncated tails
// are cut back to the last intact frame; a salt mismatch discards every
// entry and restamps the header. Unless opts.NoAutoCompact is set, a
// store wasting more space on dead frames than it holds live is
// compacted before returning.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		path:  path,
		salt:  opts.Salt,
		f:     f,
		index: make(map[Key]*entry),
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	if err := s.load(data); err != nil {
		f.Close()
		return nil, err
	}
	if !opts.NoAutoCompact {
		waste := s.fileBytes - int64(headerSize) - s.liveBytes
		if waste > compactMinWaste && waste > s.liveBytes {
			if err := s.compactLocked(); err != nil {
				s.f.Close()
				return nil, err
			}
		}
	}
	return s, nil
}

// load parses the file image, truncating back to the last good frame.
// Called from Open (and after compaction reopen) with s.mu free.
func (s *Store) load(data []byte) error {
	if len(data) == 0 {
		return s.reinit()
	}
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		s.invalidated = true
		return s.reinit()
	}
	if binary.LittleEndian.Uint64(data[len(magic):headerSize]) != s.salt {
		s.invalidated = true
		return s.reinit()
	}
	off := int64(headerSize)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < frameHead {
			break // truncated length word
		}
		bodyLen := int64(binary.LittleEndian.Uint32(rest))
		if bodyLen < KeySize || bodyLen > maxBody ||
			int64(len(rest)) < frameHead+bodyLen+frameFoot {
			break // garbage length or truncated frame
		}
		body := rest[frameHead : frameHead+bodyLen]
		sum := binary.LittleEndian.Uint64(rest[frameHead+bodyLen:])
		if fnv64a(body) != sum {
			break // corrupt frame: distrust everything after it
		}
		var k Key
		copy(k[:], body)
		value := make([]byte, bodyLen-KeySize)
		copy(value, body[KeySize:])
		if old, ok := s.index[k]; ok {
			s.liveBytes -= frameSize(len(old.value))
		}
		s.index[k] = &entry{value: value}
		s.liveBytes += frameSize(len(value))
		off += frameHead + bodyLen + frameFoot
	}
	if dropped := int64(len(data)) - off; dropped > 0 {
		s.tailDropped = dropped
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("resultstore: truncating corrupt tail: %w", err)
		}
	}
	s.fileBytes = off
	return nil
}

// reinit resets the file to an empty store under the current salt.
func (s *Store) reinit() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[len(magic):], s.salt)
	if _, err := s.f.Write(hdr); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	s.index = make(map[Key]*entry)
	s.fileBytes = int64(headerSize)
	s.liveBytes = 0
	return nil
}

// Get returns the value recorded for key. The returned slice is shared
// with the store's index: callers must treat it as read-only. Get is
// called once per sweep point (not per simulated cycle), so it is not a
// //lint:hotpath root; it still avoids defer and allocation on the hit
// path.
func (s *Store) Get(key Key) ([]byte, bool) {
	e := s.lookup(key)
	if e == nil {
		return nil, false
	}
	return e.value, true
}

// GetChecked is Get for values that must pass check before use. check
// runs on the first read of each stored value only: success is
// recorded on the entry, so later reads of the same bytes skip it. A
// value that fails check is reported as absent and stays unchecked.
// check must be deterministic in the value's bytes, which is what
// makes recording one success sound; concurrent first reads may each
// run it. In the Stats counters a found key is a hit whatever check
// decides.
func (s *Store) GetChecked(key Key, check func([]byte) error) ([]byte, bool) {
	e := s.lookup(key)
	if e == nil {
		return nil, false
	}
	if !e.checked.Load() {
		if check(e.value) != nil {
			return nil, false
		}
		e.checked.Store(true)
	}
	return e.value, true
}

// lookup finds key's entry (nil when absent) and counts the hit or miss.
func (s *Store) lookup(key Key) *entry {
	s.mu.RLock()
	e := s.index[key]
	s.mu.RUnlock()
	if e != nil {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e
}

// Len reports the number of live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Salt returns the salt the store was opened with.
func (s *Store) Salt() uint64 { return s.salt }

// Put appends key → value, superseding any earlier record for the same
// key. The frame is written with a single write syscall so concurrent
// appenders (goroutines or processes) never interleave partial frames;
// durability is deferred to Flush/Close.
func (s *Store) Put(key Key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bodyLen := KeySize + len(value)
	need := frameHead + bodyLen + frameFoot
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	frame := s.buf[:need]
	binary.LittleEndian.PutUint32(frame, uint32(bodyLen))
	copy(frame[frameHead:], key[:])
	copy(frame[frameHead+KeySize:], value)
	body := frame[frameHead : frameHead+bodyLen]
	binary.LittleEndian.PutUint64(frame[frameHead+bodyLen:], fnv64a(body))
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("resultstore: append: %w", err)
	}
	if old, ok := s.index[key]; ok {
		s.liveBytes -= frameSize(len(old.value))
	}
	stored := make([]byte, len(value))
	copy(stored, value)
	s.index[key] = &entry{value: stored}
	s.liveBytes += frameSize(len(value))
	s.fileBytes += int64(need)
	s.puts++
	return nil
}

// Flush fsyncs appended frames to disk.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Close flushes and releases the file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	syncErr := s.f.Sync()
	closeErr := s.f.Close()
	s.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Compact rewrites the file to live entries only, atomically (temp file
// + rename): a crash mid-compaction leaves the previous file intact.
// Not safe while another process appends to the same path.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[len(magic):], s.salt)
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: compact: %w", err)
	}
	written := int64(headerSize)
	var frame []byte
	for k, e := range s.index {
		v := e.value
		bodyLen := KeySize + len(v)
		need := frameHead + bodyLen + frameFoot
		if cap(frame) < need {
			frame = make([]byte, need)
		}
		frame = frame[:need]
		binary.LittleEndian.PutUint32(frame, uint32(bodyLen))
		copy(frame[frameHead:], k[:])
		copy(frame[frameHead+KeySize:], v)
		binary.LittleEndian.PutUint64(frame[frameHead+bodyLen:], fnv64a(frame[frameHead:frameHead+bodyLen]))
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("resultstore: compact: %w", err)
		}
		written += int64(need)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultstore: compact: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fmt.Errorf("resultstore: compact: %w", err)
	}
	// Durably record the rename in the directory before dropping the
	// old descriptor.
	if dir, err := os.Open(filepath.Dir(s.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: compact: %w", err)
	}
	s.f.Close()
	s.f = f
	s.fileBytes = written
	s.liveBytes = written - int64(headerSize)
	s.compactions++
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Entries:     len(s.index),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts,
		FileBytes:   s.fileBytes,
		LiveBytes:   s.liveBytes,
		TailDropped: s.tailDropped,
		Invalidated: s.invalidated,
		Compactions: s.compactions,
	}
}
