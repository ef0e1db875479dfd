package wal

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzWALRoundTrip drives arbitrary records through the frame codec:
// decode(encode(rec)) must reproduce the record, and re-encoding the
// decoded record must be byte-identical — the property recovery and
// replay determinism lean on (PR-4 strict-decode standard).
func FuzzWALRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1), true, int32(0), int32(0))
	f.Add(uint64(7), uint64(9), false, int32(123456), int32(1<<30))
	f.Add(uint64(1<<40), uint64(1<<40)+3, true, int32(1), int32(2))
	f.Fuzz(func(t *testing.T, prevSeq, seq uint64, insert bool, u, v int32) {
		op := OpDelete
		if insert {
			op = OpInsert
		}
		rec := Record{Seq: seq, Op: op, U: graph.VertexID(u), V: graph.VertexID(v)}
		buf, err := AppendRecord(nil, prevSeq, rec)
		if seq <= prevSeq || u < 0 || v < 0 {
			if err == nil {
				t.Fatalf("encoder accepted invalid record %+v after seq %d", rec, prevSeq)
			}
			return
		}
		if err != nil {
			t.Fatalf("encoder rejected valid record %+v: %v", rec, err)
		}
		got, n, err := DecodeRecord(buf, prevSeq)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decoded %d of %d bytes", n, len(buf))
		}
		if got != rec {
			t.Fatalf("round trip drifted: %+v → %+v", rec, got)
		}
		buf2, err := AppendRecord(nil, prevSeq, got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatal("re-encoding the decoded record is not byte-identical")
		}
		// A frame is position-independent given prevSeq: appending onto
		// a non-empty buffer encodes the same bytes.
		pre := []byte{0xde, 0xad}
		buf3, err := AppendRecord(append([]byte(nil), pre...), prevSeq, rec)
		if err != nil || !bytes.Equal(buf3[len(pre):], buf) {
			t.Fatalf("appending onto a prefix changed the frame (err=%v)", err)
		}
	})
}

// FuzzWALDecodeArbitrary feeds raw bytes to the frame decoder: it
// must reject or accept without panicking, and anything it accepts
// must re-encode to exactly the bytes it consumed — the decoder never
// mis-parses truncated, corrupt, or non-canonical input into a
// plausible-looking record.
func FuzzWALDecodeArbitrary(f *testing.F) {
	valid, _ := AppendRecord(nil, 4, Record{Seq: 5, Op: OpInsert, U: 3, V: 17})
	f.Add(valid, uint64(4))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x04, 0x01, 0x01, 0x00, 0x00}, uint64(0))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint64(9))
	f.Add(crcFrame([]byte{0x01}), uint64(0)) // CRC-valid, cut after the seq delta
	f.Fuzz(func(t *testing.T, data []byte, prevSeq uint64) {
		rec, n, err := DecodeRecord(data, prevSeq)
		if err != nil {
			return // rejected cleanly
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted frame with consumed=%d of %d bytes", n, len(data))
		}
		if rec.Seq <= prevSeq {
			t.Fatalf("decoder produced non-advancing seq %d after %d", rec.Seq, prevSeq)
		}
		if rec.Op != OpInsert && rec.Op != OpDelete {
			t.Fatalf("decoder produced unknown op %d", byte(rec.Op))
		}
		if rec.U < 0 || rec.V < 0 {
			t.Fatalf("decoder produced negative vertex %+v", rec)
		}
		buf, err := AppendRecord(nil, prevSeq, rec)
		if err != nil {
			t.Fatalf("encoder rejected record the decoder accepted: %v", err)
		}
		if !bytes.Equal(buf, data[:n]) {
			t.Fatalf("accepted frame is not canonical: consumed %x, re-encoded %x", data[:n], buf)
		}
	})
}
