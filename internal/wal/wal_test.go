package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "edges.wal")
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Seq: 1, Op: OpInsert, U: 3, V: 17},
		{Seq: 2, Op: OpDelete, U: 0, V: 0},
		{Seq: 3, Op: OpInsert, U: 1 << 20, V: 42},
	}
	for _, r := range want {
		seq, err := l.Append(r.Op, r.U, r.V)
		if err != nil {
			t.Fatal(err)
		}
		if seq != r.Seq {
			t.Fatalf("append assigned seq %d, want %d", seq, r.Seq)
		}
	}
	if l.LastSeq() != 3 || l.SyncedSeq() != 3 || l.Count() != 3 {
		t.Fatalf("last=%d synced=%d count=%d, want 3/3/3", l.LastSeq(), l.SyncedSeq(), l.Count())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery restores the frontier with nothing torn, and
	// Replay hands back exactly the records written.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 3 || l2.TornBytes() != 0 {
		t.Fatalf("reopen: last=%d torn=%d", l2.LastSeq(), l2.TornBytes())
	}
	if got := replayAll(t, l2); !slices.Equal(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
	seq, err := l2.Append(OpDelete, 3, 17)
	if err != nil || seq != 4 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(OpInsert, graph.VertexID(i), graph.VertexID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A mid-append crash leaves any prefix of the final record; every
	// such prefix must recover to 4 records with the tail gone.
	whole := len(data)
	rec5 := encodedLen(t, 4, Record{Seq: 5, Op: OpInsert, U: 4, V: 5})
	for cut := whole - rec5 + 1; cut < whole; cut++ {
		torn := append([]byte(nil), data[:cut]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if l2.LastSeq() != 4 {
			t.Fatalf("cut at %d: recovered to seq %d, want 4", cut, l2.LastSeq())
		}
		if want := int64(cut - (whole - rec5)); l2.TornBytes() != want {
			t.Fatalf("cut at %d: torn=%d, want %d", cut, l2.TornBytes(), want)
		}
		// The file itself is truncated back to the valid prefix, and
		// appending continues from the recovered frontier.
		if seq, err := l2.Append(OpDelete, 9, 9); err != nil || seq != 5 {
			t.Fatalf("cut at %d: append after recovery: seq=%d err=%v", cut, seq, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// replayAll returns every record l recovered at Open.
// TestMidLogCorruptionRefused: a damaged record with an intact one after
// it is not a torn tail — the records after it were acknowledged — so
// Open fails naming the damaged record's seq and offset, and leaves the
// file as it was. Restored, the file opens with every record; damage to
// the last record is still a tail and is truncated.
func TestMidLogCorruptionRefused(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(OpInsert, graph.VertexID(i), graph.VertexID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := encodedLen(t, 0, Record{Seq: 1, Op: OpInsert, U: 0, V: 1})
	rec2 := encodedLen(t, 1, Record{Seq: 2, Op: OpInsert, U: 1, V: 2})
	start := len(header) + rec1
	// Every byte of record 2 but its length prefix.
	for i := start + 1; i < start+rec2; i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		if want := fmt.Sprintf("record 2 at byte %d", start); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("byte %d flipped: Open err = %v, want one naming %q", i, err, want)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
			t.Fatalf("byte %d flipped: the refused file changed (%d bytes, was %d; %v)", i, len(after), len(bad), err)
		}
	}
	// Record 2 damaged into a frame of the shortest and the longest
	// length a frame may declare, record 3 intact after it.
	for _, plen := range []int{1, maxPayload} {
		bad := slices.Concat(data[:start], []byte{byte(plen)}, make([]byte, plen+4), data[start+rec2:])
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Fatalf("record 2 damaged into a %d-byte frame: Open err = %v, want one naming record 2", plen, err)
		}
	}

	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path)
	if err != nil {
		t.Fatalf("restored: %v", err)
	}
	if got := replayAll(t, l); len(got) != 3 || l.TornBytes() != 0 {
		t.Fatalf("restored: replayed %d records, %d torn bytes; want 3 and 0", len(got), l.TornBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path)
	if err != nil {
		t.Fatalf("last record damaged: %v", err)
	}
	if l.Count() != 2 || l.TornBytes() != int64(len(data)-start-rec2) {
		t.Fatalf("last record damaged: %d records, %d torn bytes; want 2 and %d", l.Count(), l.TornBytes(), len(data)-start-rec2)
	}
	l.Close()
}

func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var got []Record
	if err := l.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

// encodedLen returns the frame size of rec after prevSeq.
func encodedLen(t *testing.T, prevSeq uint64, rec Record) int {
	t.Helper()
	buf, err := AppendRecord(nil, prevSeq, rec)
	if err != nil {
		t.Fatal(err)
	}
	return len(buf)
}

func TestCorruptionRejected(t *testing.T) {
	rec := Record{Seq: 1, Op: OpInsert, U: 7, V: 9}
	frame, err := AppendRecord(nil, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, n, err := DecodeRecord(frame, 0); err != nil || n != len(frame) || got != rec {
		t.Fatalf("clean decode: %+v %d %v", got, n, err)
	}
	// The last seq and the last vertices there are decode too.
	top := Record{Seq: math.MaxUint64, Op: OpDelete, U: math.MaxInt32, V: math.MaxInt32}
	if topFrame, err := AppendRecord(nil, 7, top); err != nil {
		t.Fatal(err)
	} else if got, _, err := DecodeRecord(topFrame, 7); err != nil || got != top {
		t.Fatalf("decode of seq 2^64-1: %+v %v", got, err)
	}
	// Flip each byte in turn: every corruption must be rejected, never
	// mis-parsed into a different record.
	for i := range frame {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			bad := append([]byte(nil), frame...)
			bad[i] ^= flip
			if bytes.Equal(bad, frame) {
				continue
			}
			got, n, err := DecodeRecord(bad, 0)
			if err == nil && (got != rec || n != len(frame)) {
				t.Fatalf("byte %d ^ %#x: mis-parsed to %+v (n=%d)", i, flip, got, n)
			}
			// err == nil with identical record would mean the CRC did not
			// cover that byte — only possible if the flip produced an
			// equivalent frame, which the canonical-encoding check forbids.
			if err == nil {
				t.Fatalf("byte %d ^ %#x: corrupt frame accepted", i, flip)
			}
		}
	}
	// Truncations of a valid frame are all rejected.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeRecord(frame[:cut], 0); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// A frame whose CRC holds over a payload cut short after its seq
	// delta: only the payload's own structure can refuse it.
	if _, _, err := DecodeRecord(crcFrame([]byte{0x01}), 0); err == nil {
		t.Fatal("CRC-valid frame holding only a seq delta accepted")
	}
	// And one whose U overflows 64 bits.
	overlongU := []byte{0x01, byte(OpInsert), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}
	if _, _, err := DecodeRecord(crcFrame(overlongU), 0); err == nil {
		t.Fatal("CRC-valid frame with an overlong U accepted")
	}
}

// crcFrame frames payload as AppendRecord does — length, payload, CRC
// — whatever the payload holds.
func crcFrame(payload []byte) []byte {
	frame := append([]byte{byte(len(payload))}, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
}

func TestBadOpenRejected(t *testing.T) {
	dir := t.TempDir()
	notWal := filepath.Join(dir, "not.wal")
	if err := os.WriteFile(notWal, []byte("hello world, definitely not a WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(notWal); err == nil {
		t.Fatal("foreign file accepted as WAL")
	}
	badVer := filepath.Join(dir, "ver.wal")
	h := append([]byte(nil), header...)
	h[5] = 0x7f
	if err := os.WriteFile(badVer, h, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badVer); err == nil {
		t.Fatal("future-version WAL accepted")
	}
	short := filepath.Join(dir, "short.wal")
	if err := os.WriteFile(short, header[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short); err == nil {
		t.Fatal("a file shorter than the header accepted as WAL")
	}
}

func TestAppendRejectsBadRecords(t *testing.T) {
	l, err := Open(tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(Op(9), 1, 2); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := l.Append(OpInsert, -1, 2); err == nil {
		t.Error("negative vertex accepted")
	}
	if l.LastSeq() != 0 {
		t.Errorf("rejected appends advanced the frontier to %d", l.LastSeq())
	}
	// The frame encoder itself refuses a seq that does not advance.
	for _, seq := range []uint64{4, 5} {
		if _, err := AppendRecord(nil, 5, Record{Seq: seq, Op: OpInsert, U: 1, V: 2}); err == nil {
			t.Errorf("seq %d after 5 encoded", seq)
		}
	}
}

// TestConcurrentAppends: group commit must keep seqs dense and unique
// under concurrent appenders, and a reopened log replays all of them in
// order.
func TestConcurrentAppends(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	seqs := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < each; i++ {
				op := OpInsert
				if rng.Intn(2) == 0 {
					op = OpDelete
				}
				seq, err := l.Append(op, graph.VertexID(rng.Intn(100)), graph.VertexID(rng.Intn(100)))
				if err != nil {
					t.Error(err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	if l.LastSeq() != writers*each || l.SyncedSeq() != writers*each {
		t.Fatalf("frontier %d/%d, want %d", l.LastSeq(), l.SyncedSeq(), writers*each)
	}
	seen := make(map[uint64]bool)
	for _, ws := range seqs {
		for _, s := range ws {
			if seen[s] {
				t.Fatalf("seq %d assigned twice", s)
			}
			seen[s] = true
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("replay gap: %d at position %d", r.Seq, i)
		}
	}
	if len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
}

// TestFailedWritePoisonsLog: once a write fails, the log acknowledges
// nothing more, even after the fault clears — the file offset may sit
// past part of a frame, and a record acknowledged behind it would be
// cut off at the next Open as a torn tail. The records acknowledged
// before the failure are exactly what a restart recovers.
func TestFailedWritePoisonsLog(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 3; i++ {
		seq, err := l.Append(OpInsert, graph.VertexID(i), graph.VertexID(i+1))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Seq: seq, Op: OpInsert, U: graph.VertexID(i), V: graph.VertexID(i + 1)})
	}

	// A read-only handle on the same file makes exactly one write fail.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rw := l.f
	l.f = ro
	if _, err := l.Append(OpInsert, 7, 8); err == nil {
		t.Fatal("a write through a read-only handle succeeded")
	}
	l.f = rw
	ro.Close()
	if seq, err := l.Append(OpInsert, 8, 9); err == nil {
		t.Fatalf("append after a failed write acknowledged seq %d", seq)
	}
	if _, err := l.Write(OpDelete, 8, 9); err == nil {
		t.Fatal("write after a failed write accepted")
	}
	if err := l.SyncThrough(1); err == nil {
		t.Fatal("sync after a failed write succeeded")
	}
	if err := l.Close(); err == nil {
		t.Fatal("close after a failed write succeeded")
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); !slices.Equal(got, want) {
		t.Fatalf("recovered %+v, want the %d records acknowledged before the failure %+v", got, len(want), want)
	}
}
