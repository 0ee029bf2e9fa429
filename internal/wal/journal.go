package wal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// journalName is the spec journal's file name inside a log directory.
const journalName = "spec.jnl"

// Journal is the spec journal: a tiny append-only side log of dynamic
// feed-specification operations (monitor add/remove). Entries
// are opaque, newline-free byte strings supplied by the owner; each line
// is "crc32c-hex space entry newline". Unlike tick segments the journal is
// never compacted — losing a registration to retention would resurrect
// deleted monitors on restart — and every append is fsynced regardless of
// the tick fsync policy: spec changes are rare and must be crash-safe.
type Journal struct {
	path string

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// OpenJournal opens (creating if missing) the spec journal in dir and
// returns the intact entries in append order. A torn final line — the
// crash signature — is truncated away; its size is reported in truncated.
// Damage before the tail is corruption and fails the open.
func OpenJournal(dir string) (j *Journal, entries [][]byte, truncated int64, err error) {
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("wal: read journal: %w", err)
	}
	valid := int64(0)
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn: no newline, the line was cut short
		}
		line := data[off : off+nl]
		entry, ok := parseJournalLine(line)
		if !ok {
			if off+nl+1 < len(data) {
				return nil, nil, 0, fmt.Errorf("wal: journal %s: corrupt entry at offset %d", path, off)
			}
			break // bad final line: torn tail
		}
		entries = append(entries, entry)
		off += nl + 1
		valid = int64(off)
	}
	if valid < int64(len(data)) {
		truncated = int64(len(data)) - valid
		if err := os.Truncate(path, valid); err != nil {
			return nil, nil, 0, fmt.Errorf("wal: truncate journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("wal: open journal: %w", err)
	}
	return &Journal{path: path, f: f}, entries, truncated, nil
}

// parseJournalLine splits "crc32c-hex space entry" and verifies the CRC.
func parseJournalLine(line []byte) ([]byte, bool) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, false
	}
	sum, err := hex.DecodeString(string(line[:8]))
	if err != nil {
		return nil, false
	}
	entry := line[9:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if crc32.Checksum(entry, crcTable) != want {
		return nil, false
	}
	return append([]byte(nil), entry...), true
}

// Append durably writes one entry (fsync included). The entry must not
// contain a newline; JSON-marshaled bytes never do.
func (j *Journal) Append(entry []byte) error {
	if bytes.IndexByte(entry, '\n') >= 0 {
		return fmt.Errorf("wal: journal entry contains a newline")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	line := make([]byte, 0, len(entry)+10)
	line = append(line, fmt.Sprintf("%08x ", crc32.Checksum(entry, crcTable))...)
	line = append(line, entry...)
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("wal: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: journal fsync: %w", err)
	}
	return nil
}

// Close closes the journal file; the entries stay on disk. Safe to call
// twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("wal: close journal: %w", err)
	}
	return nil
}
