package drl

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pregel"
)

func TestEventBlobRoundTrip(t *testing.T) {
	if blob := encodeEventBlob(kindFwd, nil); blob != nil {
		t.Errorf("empty event set must encode to nil, got %v", blob)
	}
	evs := []visitEvent{
		{v: 9, r: 2},
		{v: 3, r: 7},
		{v: 3, r: 1},
		{v: 9, r: 11},
	}
	blob := encodeEventBlob(kindBwd, evs)
	if blob[0] != kindBwd {
		t.Fatalf("tag byte = %d, want %d", blob[0], kindBwd)
	}
	var got []visitEvent
	if err := decodeEventPairs(blob[1:], func(v graph.VertexID, r order.Rank) {
		got = append(got, visitEvent{v: v, r: r})
	}); err != nil {
		t.Fatal(err)
	}
	want := []visitEvent{{v: 3, r: 1}, {v: 3, r: 7}, {v: 9, r: 2}, {v: 9, r: 11}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %v, want %v", got, want)
	}
	// Canonical: re-encoding the decoded pairs is byte-identical.
	if blob2 := encodeEventBlob(kindBwd, got); !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding the decoded events is not byte-identical")
	}
	// The largest vertex and rank the format carries, as a first pair:
	// a gap and a rank of exactly 2^31-1.
	top := []visitEvent{{v: math.MaxInt32, r: math.MaxInt32}}
	got = got[:0]
	if err := decodeEventPairs(encodeEventBlob(kindFwd, top)[1:], func(v graph.VertexID, r order.Rank) {
		got = append(got, visitEvent{v: v, r: r})
	}); err != nil || !reflect.DeepEqual(got, top) {
		t.Fatalf("round trip of %v: got %v (%v)", top, got, err)
	}
}

// uvarints appends each x to b as a uvarint.
func uvarints(b []byte, xs ...uint64) []byte {
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// overlong is a varint that overflows 64 bits.
var overlong = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

func TestEventBlobRejectsCorrupt(t *testing.T) {
	blob := encodeEventBlob(kindFwd, []visitEvent{{v: 5, r: 3}, {v: 6, r: 1}})
	payload := blob[1:]
	nop := func(graph.VertexID, order.Rank) {}
	if err := decodeEventPairs(nil, nop); err == nil {
		t.Error("empty payload must fail")
	}
	if err := decodeEventPairs([]byte{0x7f}, nop); err == nil {
		t.Error("wrong version byte must fail")
	}
	for cut := 1; cut < len(payload); cut++ {
		if err := decodeEventPairs(payload[:cut], nop); err == nil {
			t.Errorf("truncation to %d bytes silently accepted", cut)
		}
	}
	ragged := append(append([]byte(nil), payload...), 0x01)
	if err := decodeEventPairs(ragged, nop); err == nil {
		t.Error("trailing bytes must fail")
	}
	for _, row := range []struct {
		name    string
		payload []byte
	}{
		{"vertex gap overflowing 64 bits", append(append([]byte{blobVersion, 1}, overlong...), 0)},
		{"rank overflowing 64 bits", append([]byte{blobVersion, 1, 1}, overlong...)},
		{"vertex gap past 2^63", uvarints([]byte{blobVersion}, 1, 1<<63, 0)},
		{"vertex past 2^31", uvarints([]byte{blobVersion}, 2, math.MaxInt32, 0, math.MaxInt32, 0)},
		{"rank past 2^31", uvarints([]byte{blobVersion}, 2, 0, math.MaxInt32, 0, math.MaxInt32)},
	} {
		if err := decodeEventPairs(row.payload, nop); err == nil {
			t.Errorf("%s: accepted", row.name)
		}
	}
}

func TestLabelBlobRoundTrip(t *testing.T) {
	if blob := encodeLabelBlob(nil); blob != nil {
		t.Errorf("empty share set must encode to nil, got %v", blob)
	}
	shares := []labelShare{
		{v: 12, out: []order.Rank{0, 4, 9}, in: nil},
		{v: 2, out: nil, in: []order.Rank{3}},
		{v: 30, out: []order.Rank{1}, in: []order.Rank{0, 2}},
	}
	blob := encodeLabelBlob(shares)
	if blob[0] != blobLabels {
		t.Fatalf("tag byte = %d, want %d", blob[0], blobLabels)
	}
	got := map[graph.VertexID][2][]order.Rank{}
	if err := decodeLabelShares(blob[1:], func(v graph.VertexID, out, in []order.Rank) {
		got[v] = [2][]order.Rank{out, in}
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d shares, want 3", len(got))
	}
	check := func(v graph.VertexID, wantOut, wantIn []order.Rank) {
		s, ok := got[v]
		if !ok {
			t.Fatalf("share for vertex %d missing", v)
		}
		if len(s[0]) != len(wantOut) || len(s[1]) != len(wantIn) {
			t.Fatalf("vertex %d: got %v/%v, want %v/%v", v, s[0], s[1], wantOut, wantIn)
		}
		for i := range wantOut {
			if s[0][i] != wantOut[i] {
				t.Errorf("vertex %d out[%d] = %d, want %d", v, i, s[0][i], wantOut[i])
			}
		}
		for i := range wantIn {
			if s[1][i] != wantIn[i] {
				t.Errorf("vertex %d in[%d] = %d, want %d", v, i, s[1][i], wantIn[i])
			}
		}
	}
	check(12, []order.Rank{0, 4, 9}, nil)
	check(2, nil, []order.Rank{3})
	check(30, []order.Rank{1}, []order.Rank{0, 2})
	// The largest vertex and rank the format carries, as a first share
	// and a first rank.
	clear(got)
	if err := decodeLabelShares(encodeLabelBlob([]labelShare{{v: math.MaxInt32, out: []order.Rank{math.MaxInt32}}})[1:],
		func(v graph.VertexID, out, in []order.Rank) { got[v] = [2][]order.Rank{out, in} }); err != nil {
		t.Fatal(err)
	}
	check(math.MaxInt32, []order.Rank{math.MaxInt32}, nil)
}

func TestLabelBlobRejectsCorrupt(t *testing.T) {
	blob := encodeLabelBlob([]labelShare{{v: 4, out: []order.Rank{1, 5}, in: []order.Rank{2}}})
	payload := blob[1:]
	sink := func(graph.VertexID, []order.Rank, []order.Rank) {}
	if err := decodeLabelShares(nil, sink); err == nil {
		t.Error("empty payload must fail")
	}
	if err := decodeLabelShares([]byte{0x7f}, sink); err == nil {
		t.Error("wrong version byte must fail")
	}
	for cut := 1; cut < len(payload); cut++ {
		if err := decodeLabelShares(payload[:cut], sink); err == nil {
			t.Errorf("truncation to %d bytes silently accepted", cut)
		}
	}
	ragged := append(append([]byte(nil), payload...), 0x00)
	if err := decodeLabelShares(ragged, sink); err == nil {
		t.Error("trailing bytes must fail")
	}
	for _, row := range []struct {
		name    string
		payload []byte
	}{
		{"vertex gap overflowing 64 bits", append(append([]byte{blobVersion, 1}, overlong...), 0, 0)},
		{"vertex gap past 2^63", uvarints([]byte{blobVersion}, 1, 1<<63, 0, 0)},
		{"vertex past 2^31", uvarints([]byte{blobVersion}, 2, math.MaxInt32, 0, 0, math.MaxInt32, 0, 0)},
		{"rank count overflowing 64 bits", append(append([]byte{blobVersion, 1, 0}, overlong...), 0)},
		{"rank delta past 2^63", uvarints([]byte{blobVersion}, 1, 0, 1, 0, 1<<63)},
		{"rank past 2^31", uvarints([]byte{blobVersion}, 1, 0, 2, 0, math.MaxInt32, math.MaxInt32)},
		{"rank count past the payload", uvarints([]byte{blobVersion}, 1, 0, 1<<62, 0)},
		{"in-rank count overflowing 64 bits", append([]byte{blobVersion, 1, 0, 0}, overlong...)},
		{"share cut before its in-rank count", uvarints([]byte{blobVersion}, 1, 0, 0)},
	} {
		if err := decodeLabelShares(row.payload, sink); err == nil {
			t.Errorf("%s: accepted", row.name)
		}
	}
}

// goodRecords is a well-formed reply of worker 1 of 3 over 10 vertices
// (which owns 1, 4 and 7).
func goodRecords() []byte {
	return appendRecord(appendRecord(nil, 1, [2][]order.Rank{{0}, nil}), 4, [2][]order.Rank{nil, {2, 3}})
}

// corruptRecords is the refusal table of the u32 record. The first row
// is twelve bytes a worker's Collect reply can carry: a reader that casts
// the vertex word to int32 before checking it dies with "index
// out of range [-1]" in the master. records is the count a checkpoint
// section would announce the row's bytes with, 0 where the row is the
// collect blob's alone: a section has no owner and no n (the replicas
// span every vertex) and is followed by the next section.
var corruptRecords = []struct {
	name    string
	blob    []byte
	records uint32
}{
	{"vertex past 2^31", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, 1},
	{"vertex ≥ n", appendRecord(goodRecords(), 10, [2][]order.Rank{}), 0},
	{"foreign vertex", appendRecord(goodRecords(), 5, [2][]order.Rank{}), 0},
	{"repeated vertex", appendRecord(goodRecords(), 4, [2][]order.Rank{}), 3},
	{"vertex reordered", appendRecord(appendRecord(nil, 4, [2][]order.Rank{}), 1, [2][]order.Rank{}), 2},
	{"truncated tail", goodRecords()[:len(goodRecords())-2], 2},
	{"counts overrun", []byte{7, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}, 1},
	{"trailing bytes", append(goodRecords(), 0x00), 0},
}

// TestCollectBlobRejectsCorrupt: a worker's reply cannot panic the
// master or overwrite another vertex's labels — every corruption is an
// error naming the worker.
func TestCollectBlobRejectsCorrupt(t *testing.T) {
	for _, row := range corruptRecords {
		in, out, err := decodeResults([][]byte{nil, row.blob, nil}, 10)
		if err == nil {
			t.Errorf("%s: accepted as in=%v out=%v", row.name, in, out)
		} else if !strings.Contains(err.Error(), "worker 1") {
			t.Errorf("%s: error does not name the worker: %v", row.name, err)
		}
	}
	// A last record with no ranks is its 12-byte header alone.
	if _, _, err := decodeResults([][]byte{nil, appendRecord(goodRecords(), 7, [2][]order.Rank{}), nil}, 10); err != nil {
		t.Errorf("a reply ending in an empty record: %v", err)
	}
	in, out, err := decodeResults([][]byte{nil, goodRecords(), nil}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in[1], []order.Rank{0}) || !reflect.DeepEqual(out[4], []order.Rank{2, 3}) || len(in[4])+len(out[1]) != 0 {
		t.Errorf("good reply decoded to in=%v out=%v", in, out)
	}
}

// TestPairMapRejectsCorrupt runs the rows that apply to a checkpoint
// section through readPairMap, alone and inside a checkpoint.
func TestPairMapRejectsCorrupt(t *testing.T) {
	for _, row := range corruptRecords {
		if row.records == 0 {
			continue
		}
		section := append(binary.LittleEndian.AppendUint32(nil, row.records), row.blob...)
		if m, _, err := readPairMap(section); err == nil {
			t.Errorf("%s: accepted as %v", row.name, m)
		}
		err := (&batchProgram{shared: newBatchShared(nil, dirGraphs{}, Span{}, nil)}).DecodeState(
			&pregel.Worker{ID: 2}, append([]byte{snapVersion, 1}, section...), true)
		if err == nil || !strings.Contains(err.Error(), "worker 2") {
			t.Errorf("%s in a checkpoint: want an error naming worker 2, got %v", row.name, err)
		}
	}
}

// FuzzBlobDecodeArbitrary feeds raw bytes to every decoder of another
// process's bytes — the two broadcast blobs, the collect reply and the
// checkpoint section: they must reject or accept without panicking on
// any input.
func FuzzBlobDecodeArbitrary(f *testing.F) {
	f.Add([]byte{blobVersion, 0x00})
	f.Add(encodeEventBlob(kindFwd, []visitEvent{{v: 1, r: 0}, {v: 1, r: 2}})[1:])
	f.Add(encodeLabelBlob([]labelShare{{v: 3, out: []order.Rank{1}}})[1:])
	f.Add(appendRecord(nil, 1, [2][]order.Rank{{0}, {2, 3}}))
	f.Add(appendPairMap(nil, dirLists{{4: {1, 1}}, {6: {0}}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var evs []visitEvent
		if err := decodeEventPairs(payload, func(v graph.VertexID, r order.Rank) {
			evs = append(evs, visitEvent{v: v, r: r})
		}); err == nil {
			// Accepted event payloads decode to non-decreasing vertex
			// runs by construction of the delta coding; verify the
			// decoder never emits a negative field.
			for _, e := range evs {
				if e.v < 0 || e.r < 0 {
					t.Fatalf("decoder emitted negative field: %+v", e)
				}
			}
		}
		_ = decodeLabelShares(payload, func(v graph.VertexID, out, in []order.Rank) {
			if v < 0 {
				t.Fatalf("decoder emitted negative vertex %d", v)
			}
		})
		// As worker 1 of 3's reply over 64 vertices: whatever is
		// accepted was written to that worker's own rows only.
		if in, out, err := decodeResults([][]byte{nil, payload, nil}, 64); err == nil {
			for v := range in {
				if v%3 != 1 && len(in[v])+len(out[v]) > 0 {
					t.Fatalf("worker 1's reply wrote vertex %d", v)
				}
			}
		}
		if m, _, err := readPairMap(payload); err == nil {
			for d := range m {
				for v := range m[d] {
					if v < 0 {
						t.Fatalf("section decoded a negative vertex %d", v)
					}
				}
			}
		}
	})
}

// TestPreStepRejectsUnknownTag: a broadcast blob whose tag names no
// family aborts the run instead of being read as some direction's events.
// An empty blob before it, which carries no tag, is passed over.
func TestPreStepRejectsUnknownTag(t *testing.T) {
	ws := []*pregel.Worker{{BcastIn: [][]byte{{}, {7, blobVersion, 0}}}}
	if err := (&batchProgram{shared: newBatchShared(nil, dirGraphs{}, Span{}, nil)}).PreStep(ws, 1); err == nil {
		t.Error("batchProgram accepted tag 7")
	}
	if err := (&basicPhaseB{shared: &basicShared{hig: newDirLists()}}).PreStep(ws, 1); err == nil {
		t.Error("basicPhaseB accepted tag 7")
	}
}
