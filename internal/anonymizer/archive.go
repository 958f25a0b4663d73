package anonymizer

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// A backup archive is one self-describing stream that carries a complete
// durable store independently of any directory layout: the header names
// the stripe count (DefaultShards when written; restore accepts a power
// of two from 1 to DefaultShards and re-stripes), each stripe contributes
// its snapshot (shard-NNNN.snap), and one "log" entry carries the range of the store-wide log after the
// oldest snapshot, its file record naming the range's last LSN — the
// archive's watermark. An incremental archive carries only a "log" entry,
// the records after the header's since LSN. Archives written before LSNs
// existed carry per-shard record tails (shard-NNNN.wal) instead, and some
// also their directory's META.json; restore still reads them. The archive
// reuses the WAL's CRC frame (length + CRC-32C + payload), so the same
// torn-write detection that guards recovery guards restore — but with the
// opposite policy: a WAL tolerates a torn tail, an archive is either
// complete or rejected.
//
// Record sequence:
//
//	{type:"archive", version:1, shards:N, next_id:M, since?:S}  exactly once, first
//	{type:"file", name, size, crc, seq}                       opens one file
//	{type:"data", data:<base64>}                              0+ chunks, in order
//	... more file/data groups ...
//	{type:"end", files:K}                                     exactly once, last
//
// Every file's byte count and whole-content CRC-32C are verified against
// its file record, and the end record's file count against the number of
// files seen, so a truncated, reordered or bit-flipped archive fails
// loudly instead of seeding a silently wrong data directory.

// ErrBadArchive reports an archive that is truncated, corrupt, or not an
// archive at all. Restore never touches the destination directory once it
// is returned.
var ErrBadArchive = errors.New("anonymizer: invalid or truncated archive")

// archiveVersion is the archive format version written and accepted.
const archiveVersion = 1

// Archive record types.
const (
	arcHeader = "archive"
	arcFile   = "file"
	arcData   = "data"
	arcEnd    = "end"
)

// archiveChunkSize bounds one data record's payload. Well under the frame
// limit, large enough that framing overhead is noise.
const archiveChunkSize = 256 << 10

// archiveRecord is the JSON payload of one archive frame. Fields are
// populated per Type.
type archiveRecord struct {
	Type string `json:"type"`
	// Header payload: the format version, the data directory's stripe
	// count, and the ID-allocator position at backup time (informational;
	// recovery re-derives it from the shard files). Since marks an
	// incremental archive: the LSN the delta starts after. Full archives
	// carry no Since; restore refuses to seed a directory from a delta.
	// (Incremental archives written before LSNs existed carry an array
	// here and fail to decode: they are refused.)
	Version int     `json:"version,omitempty"`
	Shards  int     `json:"shards,omitempty"`
	NextID  uint64  `json:"next_id,omitempty"`
	Since   *uint64 `json:"since,omitempty"`
	// File payload: the file's base name, byte count, and CRC-32C over its
	// whole content (the frame CRC covers each chunk; the file CRC catches
	// missing or reordered chunks). Seq is a log position: the LSN a
	// snapshot covers, or the last LSN of the log entry — so the archive's
	// watermark can be read back out of the archive itself.
	Name string `json:"name,omitempty"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"`
	Seq  uint64 `json:"seq,omitempty"`
	// Data payload: one content chunk (base64 on the wire via encoding/json).
	Data []byte `json:"data,omitempty"`
	// End payload: the number of files the archive carries.
	Files int `json:"files"`
}

// archiveSink receives the validated contents of an archive in stream
// order. readArchive has already verified framing, sequencing, sizes and
// checksums by the time a callback fires; CloseFile fires only after the
// current file's size and CRC both checked out.
type archiveSink interface {
	Header(shards int, nextID uint64, since *uint64) error
	File(name string, seq uint64) error
	Data(chunk []byte) error
	CloseFile() error
	End(files int) error
}

// archiveWriter streams a backup archive. Errors are sticky: after the
// first failed write every later call is a no-op and finish returns it.
type archiveWriter struct {
	w     io.Writer
	buf   []byte
	files int
	err   error
}

// newArchiveWriter wraps w.
func newArchiveWriter(w io.Writer) *archiveWriter {
	return &archiveWriter{w: w}
}

// record frames and writes one archive record.
func (a *archiveWriter) record(rec *archiveRecord) {
	if a.err != nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		a.err = fmt.Errorf("anonymizer: encoding archive record: %w", err)
		return
	}
	frame, err := appendFrame(a.buf, payload)
	if err != nil {
		a.err = err
		return
	}
	a.buf = frame
	if _, err := a.w.Write(frame); err != nil {
		a.err = fmt.Errorf("anonymizer: archive write: %w", err)
	}
}

// header writes the leading archive record. A non-nil since marks the
// archive as an incremental delta starting after that LSN.
func (a *archiveWriter) header(shards int, nextID uint64, since *uint64) {
	a.record(&archiveRecord{
		Type: arcHeader, Version: archiveVersion, Shards: shards,
		NextID: nextID, Since: since,
	})
}

// file writes one complete file as a file record plus data chunks; seq
// is its log position (see archiveRecord).
func (a *archiveWriter) file(name string, seq uint64, content []byte) {
	a.record(&archiveRecord{
		Type: arcFile, Name: name, Size: int64(len(content)),
		CRC: crc32.Checksum(content, castagnoli), Seq: seq,
	})
	for len(content) > 0 && a.err == nil {
		n := len(content)
		if n > archiveChunkSize {
			n = archiveChunkSize
		}
		a.record(&archiveRecord{Type: arcData, Data: content[:n]})
		content = content[n:]
	}
	a.files++
}

// finish writes the end record and returns the first error, if any.
func (a *archiveWriter) finish() error {
	a.record(&archiveRecord{Type: arcEnd, Files: a.files})
	return a.err
}

// badArchive builds an ErrBadArchive with detail.
func badArchive(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadArchive, fmt.Sprintf(format, args...))
}

// validArchiveFileName rejects names that could escape the destination
// directory (or hide state in odd places). Restore additionally pins the
// exact entry naming; this is the format-level floor every reader
// enforces, fuzzed input included.
func validArchiveFileName(name string) bool {
	if name == "" || len(name) > 255 {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return false
	}
	return true
}

// readArchive decodes and validates an archive stream, feeding its
// contents to sink. It owns the full structural check — header first,
// file/data sequencing, per-file size and CRC, end-record file count, no
// trailing garbage — so every consumer (restore, fuzzing) gets identical
// strictness. Any framing damage, including a torn tail that a WAL would
// tolerate, is ErrBadArchive: an archive is all-or-nothing.
func readArchive(r io.Reader, sink archiveSink) error {
	var (
		sawHeader bool
		sawEnd    bool
		inFile    bool
		fileSize  int64
		fileGot   int64
		fileCRC   uint32
		crc       uint32
		files     int
	)
	closeFile := func() error {
		if fileGot != fileSize {
			return badArchive("file truncated: %d of %d bytes", fileGot, fileSize)
		}
		if crc != fileCRC {
			return badArchive("file checksum mismatch")
		}
		inFile = false
		return sink.CloseFile()
	}
	_, err := readFrames(r, func(payload []byte) error {
		if sawEnd {
			return badArchive("data after end record")
		}
		var rec archiveRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return badArchive("record: %v", err)
		}
		switch rec.Type {
		case arcHeader:
			if sawHeader {
				return badArchive("duplicate header")
			}
			sawHeader = true
			if rec.Version != archiveVersion {
				return badArchive("unsupported version %d", rec.Version)
			}
			if rec.Shards < 1 || rec.Shards > DefaultShards || rec.Shards&(rec.Shards-1) != 0 {
				return badArchive("stripe count %d is not a power of two from 1 to %d", rec.Shards, DefaultShards)
			}
			return sink.Header(rec.Shards, rec.NextID, rec.Since)
		case arcFile:
			if !sawHeader {
				return badArchive("file record before header")
			}
			if inFile {
				if err := closeFile(); err != nil {
					return err
				}
			}
			if !validArchiveFileName(rec.Name) {
				return badArchive("unsafe file name %q", rec.Name)
			}
			if rec.Size < 0 {
				return badArchive("negative file size")
			}
			inFile, fileSize, fileGot, fileCRC, crc = true, rec.Size, 0, rec.CRC, 0
			files++
			return sink.File(rec.Name, rec.Seq)
		case arcData:
			if !inFile {
				return badArchive("data record outside a file")
			}
			fileGot += int64(len(rec.Data))
			if fileGot > fileSize {
				return badArchive("file overflows its declared size")
			}
			crc = crc32.Update(crc, castagnoli, rec.Data)
			return sink.Data(rec.Data)
		case arcEnd:
			if !sawHeader {
				return badArchive("end record before header")
			}
			if inFile {
				if err := closeFile(); err != nil {
					return err
				}
			}
			if rec.Files != files {
				return badArchive("end record claims %d files, archive carries %d", rec.Files, files)
			}
			sawEnd = true
			return sink.End(files)
		default:
			return badArchive("unknown record type %q", rec.Type)
		}
	})
	if err != nil {
		if errors.Is(err, errTornTail) {
			return badArchive("torn or truncated stream")
		}
		return err
	}
	if !sawEnd {
		return badArchive("missing end record")
	}
	return nil
}
