// Package wal is the durable write-ahead edge log of the serving
// tier's mutation path (DESIGN.md §10): POST /edges appends here
// first, the background refresher folds the log into the dynamic
// index in batches, and after a crash the log replays into a fresh
// index — an acknowledged write is never lost.
//
// File format, version 1 (delta+varint in the house style of the
// Pregel message codec, internal/pregel/codec.go):
//
//	file    := header record*
//	header  := "RLWAL" version(1)
//	record  := uvarint(payloadLen) payload crc32(payload, IEEE, LE)
//	payload := uvarint(seqDelta) op(1) uvarint(u) uvarint(v)
//
// Sequence numbers are assigned densely from 1 and stored as the
// delta to the previous record's seq, so a well-formed log encodes
// each delta in one byte. Decoding is strict: an unknown version, a
// zero seq delta, an op outside {insert, delete}, a vertex beyond
// int32, an oversized or truncated frame, or a CRC mismatch is a hard
// error — a corrupt record is never silently skipped or mis-parsed.
// The one sanctioned repair is at Open: a torn tail (the suffix after
// the last valid record, which a mid-append crash leaves behind) is
// truncated away and reported. A damaged record that a valid one
// follows is no tail — a crash leaves only a prefix of the unsynced
// bytes, so what follows was acknowledged — and Open refuses the file,
// naming the record, and leaves it as it is. Every file operation goes
// through internal/durable's seam, and TestWALCrashPoints crashes the
// log after each one of a scripted run: Open never fails afterwards,
// and it recovers a prefix of the records written that holds every
// record acknowledged.
//
// The file is read once, at Open; Replay hands those records out and
// nothing reads the file after that. Writes are group-committed: Write
// assigns the seq and writes the record under the append lock, and
// SyncThrough joins the earliest fsync that covers it, so N concurrent
// writers pay ~one fsync instead of N. Append is the two in sequence
// and returns only after its record is durable. The first write or
// fsync error is sticky: the log refuses every later write, sync and
// close with it, so nothing is acknowledged behind bytes a restart
// would cut off.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/durable"
	"repro/internal/graph"
)

// Op is the mutation kind of one record.
type Op byte

// The record kinds. Values are part of the on-disk format.
const (
	OpInsert Op = 1
	OpDelete Op = 2
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", byte(o))
	}
}

// Record is one durable edge mutation.
type Record struct {
	Seq  uint64 // dense, starting at 1
	Op   Op
	U, V graph.VertexID
}

// header is the 6-byte file prologue: magic plus format version.
var header = []byte{'R', 'L', 'W', 'A', 'L', 0x01}

// maxPayload bounds one record's payload: a maximal payload is
// uvarint64(10) + op(1) + 2×uvarint32(5) = 21 bytes, so anything
// larger is corrupt and rejected before allocation.
const maxPayload = 32

// AppendRecord encodes r (whose Seq must exceed prevSeq) onto buf.
// The frame is self-contained given prevSeq, so a reader that knows
// the previous seq can decode it with DecodeRecord.
func AppendRecord(buf []byte, prevSeq uint64, r Record) ([]byte, error) {
	if r.Seq <= prevSeq {
		return buf, fmt.Errorf("wal: seq %d not above previous %d", r.Seq, prevSeq)
	}
	if r.Op != OpInsert && r.Op != OpDelete {
		return buf, fmt.Errorf("wal: unknown op %d", byte(r.Op))
	}
	if r.U < 0 || r.V < 0 {
		return buf, fmt.Errorf("wal: negative vertex in edge (%d,%d)", r.U, r.V)
	}
	var payload [maxPayload]byte
	p := binary.PutUvarint(payload[:], r.Seq-prevSeq)
	payload[p] = byte(r.Op)
	p++
	p += binary.PutUvarint(payload[p:], uint64(r.U))
	p += binary.PutUvarint(payload[p:], uint64(r.V))
	buf = binary.AppendUvarint(buf, uint64(p))
	buf = append(buf, payload[:p]...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload[:p])), nil
}

// DecodeRecord decodes one frame from the front of buf, given the seq
// of the preceding record. It returns the record and the number of
// bytes consumed. Every structural defect — truncation, an oversized
// frame, a CRC mismatch, a zero seq delta, an unknown op, a vertex
// overflowing int32, or a payload with trailing bytes — is an error;
// a successful decode re-encodes to exactly the consumed bytes.
func DecodeRecord(buf []byte, prevSeq uint64) (Record, int, error) {
	plen, k := binary.Uvarint(buf)
	if k <= 0 {
		return Record{}, 0, fmt.Errorf("wal: truncated frame length")
	}
	if plen == 0 || plen > maxPayload {
		return Record{}, 0, fmt.Errorf("wal: frame payload of %d bytes out of range (1..%d)", plen, maxPayload)
	}
	if uint64(len(buf)-k) < plen+4 {
		return Record{}, 0, fmt.Errorf("wal: truncated frame: %d payload+crc bytes declared, %d available", plen+4, len(buf)-k)
	}
	payload := buf[k : k+int(plen)]
	wantCRC := binary.LittleEndian.Uint32(buf[k+int(plen):])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return Record{}, 0, fmt.Errorf("wal: CRC mismatch: computed %08x, stored %08x", got, wantCRC)
	}
	delta, p := binary.Uvarint(payload)
	if p <= 0 {
		return Record{}, 0, fmt.Errorf("wal: corrupt payload: unreadable seq delta")
	}
	if delta == 0 {
		return Record{}, 0, fmt.Errorf("wal: corrupt payload: zero seq delta")
	}
	if delta > math.MaxUint64-prevSeq {
		return Record{}, 0, fmt.Errorf("wal: corrupt payload: seq delta %d overflows", delta)
	}
	if p >= len(payload) {
		return Record{}, 0, fmt.Errorf("wal: corrupt payload: truncated before op")
	}
	op := Op(payload[p])
	p++
	if op != OpInsert && op != OpDelete {
		return Record{}, 0, fmt.Errorf("wal: unknown op %d", byte(op))
	}
	u, n := binary.Uvarint(payload[p:])
	if n <= 0 {
		return Record{}, 0, fmt.Errorf("wal: corrupt payload: truncated in U")
	}
	p += n
	v, n := binary.Uvarint(payload[p:])
	if n <= 0 {
		return Record{}, 0, fmt.Errorf("wal: corrupt payload: truncated in V")
	}
	p += n
	if p != len(payload) {
		return Record{}, 0, fmt.Errorf("wal: corrupt payload: %d trailing bytes", len(payload)-p)
	}
	if u > math.MaxInt32 || v > math.MaxInt32 {
		return Record{}, 0, fmt.Errorf("wal: vertex out of int32 range in edge (%d,%d)", u, v)
	}
	rec := Record{
		Seq: prevSeq + delta,
		Op:  op,
		U:   graph.VertexID(u),
		V:   graph.VertexID(v),
	}
	// A minimal encoder must reproduce the frame byte-for-byte; a frame
	// that decodes but used an overlong varint would break replay
	// determinism, so it is rejected as corrupt too.
	reenc, err := AppendRecord(nil, prevSeq, rec)
	if err != nil {
		return Record{}, 0, err
	}
	consumed := k + int(plen) + 4
	if len(reenc) != consumed || string(reenc) != string(buf[:consumed]) {
		return Record{}, 0, fmt.Errorf("wal: non-canonical frame encoding")
	}
	return rec, consumed, nil
}

// Log is a durable, append-only edge log.
type Log struct {
	path string
	f    durable.File

	// mu guards seq assignment and the file write, keeping records in
	// seq order on disk.
	mu        sync.Mutex
	lastSeq   uint64
	count     uint64
	encBuf    []byte
	err       error    // the first write or fsync failure, returned ever after
	recovered []Record // read at Open, handed out by Replay

	// syncMu serializes fsync; syncedSeq is the group-commit frontier.
	syncMu    sync.Mutex
	syncedSeq uint64

	torn int64 // bytes truncated during recovery
}

// Open opens (creating if absent) the log at path and recovers it:
// the file is scanned, every valid record kept for Replay, and a torn
// tail — bytes after the last valid record — truncated away. Records
// before the tear are never touched, and a damaged record with a valid
// one after it is a hard error that leaves the file untouched. The
// log's directory is synced before Open returns, so the entry naming
// the file is durable before any record is acknowledged.
func Open(path string) (*Log, error) { return open(durable.OS, path) }

func open(fsys durable.FS, path string) (*Log, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, f: f}
	err = l.recover()
	if err == nil {
		// On every Open, not only the one that creates the file: a
		// predecessor may have crashed between creating and syncing it.
		err = fsys.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover scans the file, validates the header and every record, and
// truncates a torn tail; the file is opened O_APPEND, so writes land
// after the last valid record.
func (l *Log) recover() error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("wal: reading %s: %w", l.path, err)
	}
	if len(data) == 0 {
		if _, err := l.f.Write(header); err != nil {
			return fmt.Errorf("wal: writing header: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing header: %w", err)
		}
		return nil
	}
	if len(data) < len(header) || string(data[:5]) != "RLWAL" {
		return fmt.Errorf("wal: %s is not a write-ahead edge log", l.path)
	}
	if data[5] != header[5] {
		return fmt.Errorf("wal: %s: unsupported format version 0x%02x (want 0x%02x)", l.path, data[5], header[5])
	}
	off := int64(len(header))
	prev := uint64(0)
	for off < int64(len(data)) {
		rec, n, err := DecodeRecord(data[off:], prev)
		if err != nil {
			// A crash mid-append can only damage the suffix, because
			// records are written in order and acknowledged after fsync:
			// a damaged frame whose length still frames it, with the next
			// record decoding after it, is corruption of acknowledged
			// bytes, not a tear.
			if plen, k := binary.Uvarint(data[off:]); k > 0 && plen >= 1 && plen <= maxPayload {
				next := off + int64(k) + int64(plen) + 4
				if next < int64(len(data)) {
					if after, _, aerr := DecodeRecord(data[next:], prev+1); aerr == nil && after.Seq == prev+2 {
						return fmt.Errorf("wal: %s: record %d at byte %d is corrupt (%v) and record %d after it is intact: refusing to truncate acknowledged records", l.path, prev+1, off, err, prev+2)
					}
				}
			}
			l.torn = int64(len(data)) - off
			break
		}
		off += int64(n)
		prev = rec.Seq
		l.recovered = append(l.recovered, rec)
	}
	l.lastSeq = prev
	l.syncedSeq = prev
	l.count = uint64(len(l.recovered))
	// Truncating where no tail was torn keeps the file as it is.
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing truncation: %w", err)
	}
	return nil
}

// LastSeq returns the highest assigned sequence number (recovered or
// written). A written record may not be durable yet; SyncedSeq is the
// durability frontier.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// SyncedSeq returns the highest sequence number known durable.
func (l *Log) SyncedSeq() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncedSeq
}

// Count returns the number of records in the log.
func (l *Log) Count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Append writes the edge mutation and returns its sequence number
// once the record is durable: Write, then SyncThrough.
func (l *Log) Append(op Op, u, v graph.VertexID) (uint64, error) {
	seq, err := l.Write(op, u, v)
	if err != nil {
		return 0, err
	}
	return seq, l.SyncThrough(seq)
}

// Write assigns the next sequence number to the edge mutation and
// writes its record without waiting for the fsync; SyncThrough(seq)
// makes it durable. A failed write poisons the log: the file offset
// may already sit past part of a frame, so a later record would land
// behind bytes Open truncates as a torn tail.
func (l *Log) Write(op Op, u, v graph.VertexID) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	seq := l.lastSeq + 1
	buf, err := AppendRecord(l.encBuf[:0], l.lastSeq, Record{Seq: seq, Op: op, U: u, V: v})
	if err != nil {
		return 0, err
	}
	l.encBuf = buf
	if _, err := l.f.Write(buf); err != nil {
		l.err = fmt.Errorf("wal: appending record %d: %w", seq, err)
		return 0, l.err
	}
	l.lastSeq = seq
	l.count++
	return seq, nil
}

// SyncThrough blocks until every record up to seq is fsynced. The
// first caller through the lock syncs on behalf of everyone whose
// record is already written — group commit. A failed fsync poisons
// the log like a failed write.
func (l *Log) SyncThrough(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	frontier, err := l.lastSeq, l.err
	l.mu.Unlock()
	if err != nil || l.syncedSeq >= seq {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.err == nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		}
		return l.err
	}
	l.syncedSeq = frontier
	return nil
}

// Replay streams the records Open recovered, in order, through fn; fn
// returning an error stops the replay and propagates. It does not read
// the file, and it releases the records: a log is replayed once, before
// anything is written to it.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	recs := l.recovered
	l.recovered = nil
	l.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes the log; after a failed write or fsync it
// returns that error.
func (l *Log) Close() error {
	err := l.SyncThrough(l.LastSeq())
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
