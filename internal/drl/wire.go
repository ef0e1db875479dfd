package drl

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/order"
)

// Broadcast blob wire format. The DRL programs broadcast three blob
// families — visit events (inverted-list feed), hig pairs (DRL⁻ phase
// B), and batch label shares (Algorithm 4 line 8) — and at P workers
// every blob byte is charged (P−1)× to BytesRemote, so these blobs
// dominate the build's communication volume. They get the same
// treatment as the point-to-point message codec (DESIGN.md §11):
//
//	event blob := tag(1) version(1) uvarint(count) pair*
//	pair       := uvarint(dv) uvarint(dv>0 ? r : dr)
//
//	label blob := tag(1) version(1) uvarint(count) share*
//	share      := uvarint(dv) uvarint(nOut) uvarint(nIn)
//	              rankDeltas[nOut] rankDeltas[nIn]
//
// Pairs are sorted by (vertex, rank); dv is the vertex gap to the
// previous pair and the rank is delta-encoded within a vertex run.
// Label shares are sorted by vertex and each rank list is strictly
// increasing (the label-list invariant), so rankDeltas encodes the
// first rank absolute and then the positive gaps. Decoding is strict:
// a version mismatch, truncated record, or ragged tail is a hard
// error that PreStep propagates through both transports — the v1
// decoders silently ignored trailing garbage.

// blobVersion is the broadcast-blob version byte (after the tag).
const blobVersion = 0x01

// visitEvent is one (vertex, rank) inverted-list entry in flight.
type visitEvent struct {
	v graph.VertexID
	r order.Rank
}

// encodeEventBlob serializes events under tag, sorting evs in place by
// (vertex, rank). Returns nil for an empty event set so callers can
// skip the broadcast entirely.
func encodeEventBlob(tag uint8, evs []visitEvent) []byte {
	if len(evs) == 0 {
		return nil
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].v != evs[j].v {
			return evs[i].v < evs[j].v
		}
		return evs[i].r < evs[j].r
	})
	blob := make([]byte, 0, 3+3*len(evs))
	blob = append(blob, tag, blobVersion)
	blob = binary.AppendUvarint(blob, uint64(len(evs)))
	prevV, prevR := int64(0), int64(0)
	for _, e := range evs {
		dv := int64(e.v) - prevV
		blob = binary.AppendUvarint(blob, uint64(dv))
		if dv > 0 {
			blob = binary.AppendUvarint(blob, uint64(e.r))
		} else {
			blob = binary.AppendUvarint(blob, uint64(int64(e.r)-prevR))
		}
		prevV, prevR = int64(e.v), int64(e.r)
	}
	return blob
}

// decodeEventPairs walks an event blob's payload (everything after the
// tag byte) and hands each (vertex, rank) pair to fn.
func decodeEventPairs(payload []byte, fn func(graph.VertexID, order.Rank)) error {
	if len(payload) == 0 || payload[0] != blobVersion {
		return fmt.Errorf("drl: unsupported event-blob version")
	}
	rest := payload[1:]
	count, k := binary.Uvarint(rest)
	if k <= 0 || count > uint64(len(rest)) {
		return fmt.Errorf("drl: corrupt event blob: bad pair count")
	}
	rest = rest[k:]
	prevV, prevR := int64(0), int64(0)
	for i := uint64(0); i < count; i++ {
		dv, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("drl: ragged event blob: pair %d/%d truncated", i, count)
		}
		rest = rest[k:]
		rv, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("drl: ragged event blob: pair %d/%d truncated in rank", i, count)
		}
		rest = rest[k:]
		if dv > math.MaxInt32 || rv > math.MaxInt32 {
			return fmt.Errorf("drl: corrupt event blob: pair %d out of range", i)
		}
		v := prevV + int64(dv)
		r := int64(rv)
		if dv == 0 {
			r += prevR
		}
		if v > math.MaxInt32 || r > math.MaxInt32 {
			return fmt.Errorf("drl: corrupt event blob: pair %d out of range", i)
		}
		fn(graph.VertexID(v), order.Rank(r))
		prevV, prevR = v, r
	}
	if len(rest) != 0 {
		return fmt.Errorf("drl: ragged event blob: %d trailing bytes after %d pairs", len(rest), count)
	}
	return nil
}

// labelShare is one batch source's prior labels (Algorithm 4 line 8).
type labelShare struct {
	v   graph.VertexID
	out []order.Rank
	in  []order.Rank
}

// appendRankDeltas encodes a strictly increasing rank list as first
// rank absolute, then gaps.
func appendRankDeltas(blob []byte, rs []order.Rank) []byte {
	prev := int64(0)
	for i, r := range rs {
		if i == 0 {
			blob = binary.AppendUvarint(blob, uint64(r))
		} else {
			blob = binary.AppendUvarint(blob, uint64(int64(r)-prev))
		}
		prev = int64(r)
	}
	return blob
}

func readRankDeltas(rest []byte, n int) ([]order.Rank, []byte, error) {
	rs := make([]order.Rank, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, nil, fmt.Errorf("drl: ragged label blob: rank %d/%d truncated", i, n)
		}
		rest = rest[k:]
		if d > math.MaxInt32 {
			return nil, nil, fmt.Errorf("drl: corrupt label blob: rank out of range")
		}
		r := int64(d)
		if i > 0 {
			r += prev
		}
		if r > math.MaxInt32 {
			return nil, nil, fmt.Errorf("drl: corrupt label blob: rank out of range")
		}
		rs = append(rs, order.Rank(r))
		prev = r
	}
	return rs, rest, nil
}

// encodeLabelBlob serializes the batch sources' label shares, sorted
// by vertex. Returns nil when there is nothing to share.
func encodeLabelBlob(shares []labelShare) []byte {
	if len(shares) == 0 {
		return nil
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].v < shares[j].v })
	blob := []byte{blobLabels, blobVersion}
	blob = binary.AppendUvarint(blob, uint64(len(shares)))
	prevV := int64(0)
	for _, s := range shares {
		blob = binary.AppendUvarint(blob, uint64(int64(s.v)-prevV))
		prevV = int64(s.v)
		blob = binary.AppendUvarint(blob, uint64(len(s.out)))
		blob = binary.AppendUvarint(blob, uint64(len(s.in)))
		blob = appendRankDeltas(blob, s.out)
		blob = appendRankDeltas(blob, s.in)
	}
	return blob
}

// decodeLabelShares walks a label blob's payload (after the tag byte)
// and hands each share to fn.
func decodeLabelShares(payload []byte, fn func(v graph.VertexID, out, in []order.Rank)) error {
	if len(payload) == 0 || payload[0] != blobVersion {
		return fmt.Errorf("drl: unsupported label-blob version")
	}
	rest := payload[1:]
	count, k := binary.Uvarint(rest)
	if k <= 0 || count > uint64(len(rest)) {
		return fmt.Errorf("drl: corrupt label blob: bad share count")
	}
	rest = rest[k:]
	prevV := int64(0)
	for i := uint64(0); i < count; i++ {
		dv, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("drl: ragged label blob: share %d/%d truncated", i, count)
		}
		rest = rest[k:]
		if dv > math.MaxInt32 {
			return fmt.Errorf("drl: corrupt label blob: vertex out of range")
		}
		v := prevV + int64(dv)
		if v > math.MaxInt32 {
			return fmt.Errorf("drl: corrupt label blob: vertex out of range")
		}
		prevV = v
		nOut, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("drl: ragged label blob: share %d nOut truncated", i)
		}
		rest = rest[k:]
		nIn, k := binary.Uvarint(rest)
		if k <= 0 {
			return fmt.Errorf("drl: ragged label blob: share %d nIn truncated", i)
		}
		rest = rest[k:]
		if nOut+nIn > uint64(len(rest))+2 {
			return fmt.Errorf("drl: corrupt label blob: %d+%d ranks declared in %d bytes", nOut, nIn, len(rest))
		}
		var out, in []order.Rank
		var err error
		if out, rest, err = readRankDeltas(rest, int(nOut)); err != nil {
			return err
		}
		if in, rest, err = readRankDeltas(rest, int(nIn)); err != nil {
			return err
		}
		fn(graph.VertexID(v), out, in)
	}
	if len(rest) != 0 {
		return fmt.Errorf("drl: ragged label blob: %d trailing bytes after %d shares", len(rest), count)
	}
	return nil
}

// The u32 record. What does not cross the wire every superstep — the
// collect replies of the final gather and every section of a superstep
// checkpoint (snapshot.go) — is a run of fixed-width records, one per
// vertex with both directions' lists,
//
//	record := vertex(u32) n0(u32) n1(u32) ranks[n0](u32 each) ranks[n1]
//
// little-endian, in strictly increasing vertex order. The rank lists
// are kept verbatim: a checkpoint's in-batch lists are in arrival order
// and may repeat a rank, which the gap coding above cannot carry.

func appendRecord(blob []byte, v graph.VertexID, lists [2][]order.Rank) []byte {
	blob = binary.LittleEndian.AppendUint32(blob, uint32(v))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(lists[0])))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(lists[1])))
	for _, rs := range lists {
		for _, r := range rs {
			blob = binary.LittleEndian.AppendUint32(blob, uint32(r))
		}
	}
	return blob
}

// readRecord is the one reader of the u32 record, and it is strict:
// the bytes come from another process. It refuses a record cut short
// by the end of blob, a vertex outside [0, bound), and a vertex not
// after prev, the previous record's (-1 before the first) — so a
// repeated vertex is an error, never a last-wins overwrite.
func readRecord(blob []byte, prev graph.VertexID, bound int) (v graph.VertexID, lists [2][]order.Rank, rest []byte, err error) {
	if len(blob) < 12 {
		return 0, lists, nil, fmt.Errorf("record header truncated to %d bytes", len(blob))
	}
	id := int64(binary.LittleEndian.Uint32(blob))
	n := [2]int64{int64(binary.LittleEndian.Uint32(blob[4:])), int64(binary.LittleEndian.Uint32(blob[8:]))}
	blob = blob[12:]
	switch {
	case id >= int64(bound):
		return 0, lists, nil, fmt.Errorf("vertex %d outside [0, %d)", id, bound)
	case id <= int64(prev):
		return 0, lists, nil, fmt.Errorf("vertex %d does not follow vertex %d", id, prev)
	case 4*(n[0]+n[1]) > int64(len(blob)):
		return 0, lists, nil, fmt.Errorf("vertex %d declares %d+%d ranks, %d bytes remain", id, n[0], n[1], len(blob))
	}
	for d, k := range n {
		lists[d] = make([]order.Rank, k)
		for i := range lists[d] {
			lists[d][i] = order.Rank(binary.LittleEndian.Uint32(blob[4*i:]))
		}
		blob = blob[4*k:]
	}
	return graph.VertexID(id), lists, blob, nil
}
