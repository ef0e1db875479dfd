package pregel

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// Message wire format, version 2 (see DESIGN.md §11 for the normative
// spec). One packet carries every message one sender worker addresses
// to one receiver worker in one superstep:
//
//	packet  := version(1) uvarint(count) record*
//	record  := uvarint(dstDelta) kind(1) svarint(val) svarint(val2)
//
// Records are sorted by destination vertex, so dstDelta (the gap to
// the previous record's Dst, starting from 0) is small and uvarint
// encodes it in one byte for almost every record. Val and Val2 are
// zigzag varints: the rank payloads of the labeling programs are
// small non-negative ints (1–2 bytes) and Val2 is almost always zero
// (1 byte), against the flat 13 bytes/record of format v1.
//
// Decoding is strict in every build, not just -tags=invariants: a
// version mismatch, a truncated record, a trailing ragged tail, or an
// out-of-range field is a hard error that both transports propagate
// to the caller. A corrupt packet means sender and receiver disagree
// about the wire — silently dropping the tail (what v1 did) corrupts
// the index instead of failing the build.

// wireVersion is the packet version byte. Bump it whenever the record
// layout changes; decoders reject everything else.
const wireVersion = 0x02

// Combiner merges the messages addressed to one destination vertex
// before they are serialized — Pregel's classic message combiner. The
// codec calls it once per maximal run of equal-Dst records (after
// sorting the outbox by Dst) and encodes whatever it returns, so both
// the Messages metric and the wire bytes reflect the combined set.
//
// Contract: every returned message must keep the run's Dst, and the
// returned slice may alias the input (in-place filtering is fine).
// Combining must not change program semantics: it is only safe when
// the program treats its inbox as a set (DRL's seen-guarded rank
// messages are the motivating case — see DedupCombiner).
type Combiner func(msgs []Msg) []Msg

// CombinerProvider is an optional Program extension: a program whose
// message handling is idempotent registers a Combiner here and both
// transports apply it at encode time.
type CombinerProvider interface {
	MessageCombiner() Combiner
}

// DedupCombiner is the combiner the DRL programs register: it drops
// duplicate (Kind, Val, Val2) messages to the same destination vertex.
// DRL's receivers are seen-guarded (a duplicate visit message is
// skipped), so deduplication is semantics-preserving; it also sorts
// the run by (Kind, Val, Val2), which keeps the wire bytes
// deterministic regardless of outbox append order.
func DedupCombiner(msgs []Msg) []Msg {
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Val != b.Val {
			return a.Val < b.Val
		}
		return a.Val2 < b.Val2
	})
	out := msgs[:1]
	for _, m := range msgs[1:] {
		if m != out[len(out)-1] {
			out = append(out, m)
		}
	}
	return out
}

// encodePacket serializes msgs into one wire packet appended to buf,
// returning the extended buffer and the number of records actually
// encoded (post-combining). msgs is sorted in place by Dst (stable, so
// same-destination messages keep their send order for programs without
// a combiner) and, when comb is non-nil, combined per equal-Dst run.
//
// A message with a negative Dst is rejected: it is not a vertex, and
// v1's unchecked uint32 casts would have put it on the wire anyway.
func encodePacket(buf []byte, msgs []Msg, comb Combiner) ([]byte, int, error) {
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Dst < msgs[j].Dst })
	if comb != nil {
		k := 0
		for i := 0; i < len(msgs); {
			j := i + 1
			for j < len(msgs) && msgs[j].Dst == msgs[i].Dst {
				j++
			}
			dst := msgs[i].Dst
			run := comb(msgs[i:j])
			for _, m := range run {
				invariant.Assert(m.Dst == dst,
					"pregel: combiner moved a message from vertex %d to %d", dst, m.Dst)
			}
			k += copy(msgs[k:], run)
			i = j
		}
		msgs = msgs[:k]
	}

	buf = append(buf, wireVersion)
	buf = binary.AppendUvarint(buf, uint64(len(msgs)))
	prev := int64(0)
	for _, m := range msgs {
		d := int64(m.Dst)
		if d < 0 {
			return nil, 0, fmt.Errorf("pregel: message Dst %d out of range [0, %d]", m.Dst, math.MaxInt32)
		}
		buf = binary.AppendUvarint(buf, uint64(d-prev))
		prev = d
		buf = append(buf, m.Kind)
		buf = binary.AppendVarint(buf, int64(m.Val))
		buf = binary.AppendVarint(buf, int64(m.Val2))
	}
	return buf, len(msgs), nil
}

// decodePacket appends the packet's records to dst. Any structural
// defect — wrong version, bad count, truncated record, out-of-range
// field, or bytes left over after the declared records — is an error
// in every build.
func decodePacket(buf []byte, dst []Msg) ([]Msg, error) {
	if len(buf) == 0 {
		return dst, fmt.Errorf("pregel: empty message packet")
	}
	if buf[0] != wireVersion {
		return dst, fmt.Errorf("pregel: unsupported wire version 0x%02x (want 0x%02x)", buf[0], wireVersion)
	}
	rest := buf[1:]
	count, k := binary.Uvarint(rest)
	if k <= 0 {
		return dst, fmt.Errorf("pregel: corrupt packet: unreadable record count")
	}
	rest = rest[k:]
	// Each record is at least 4 bytes, so the count doubles as an
	// allocation guard against corrupt headers.
	if count > uint64(len(rest)) {
		return dst, fmt.Errorf("pregel: corrupt packet: %d records declared in %d payload bytes", count, len(rest))
	}
	if need := len(dst) + int(count); cap(dst) < need {
		grown := make([]Msg, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		delta, k := binary.Uvarint(rest)
		if k <= 0 {
			return dst, fmt.Errorf("pregel: ragged packet: record %d/%d truncated in Dst delta", i, count)
		}
		rest = rest[k:]
		if delta > math.MaxInt32 || prev+int64(delta) > math.MaxInt32 {
			return dst, fmt.Errorf("pregel: corrupt packet: record %d Dst exceeds %d", i, math.MaxInt32)
		}
		prev += int64(delta)
		if len(rest) < 1 {
			return dst, fmt.Errorf("pregel: ragged packet: record %d/%d truncated before kind", i, count)
		}
		kind := rest[0]
		rest = rest[1:]
		val, k := binary.Varint(rest)
		if k <= 0 {
			return dst, fmt.Errorf("pregel: ragged packet: record %d/%d truncated in Val", i, count)
		}
		rest = rest[k:]
		if val < math.MinInt32 || val > math.MaxInt32 {
			return dst, fmt.Errorf("pregel: corrupt packet: record %d Val %d overflows int32", i, val)
		}
		val2, k := binary.Varint(rest)
		if k <= 0 {
			return dst, fmt.Errorf("pregel: ragged packet: record %d/%d truncated in Val2", i, count)
		}
		rest = rest[k:]
		if val2 < math.MinInt32 || val2 > math.MaxInt32 {
			return dst, fmt.Errorf("pregel: corrupt packet: record %d Val2 %d overflows int32", i, val2)
		}
		dst = append(dst, Msg{
			Dst:  graph.VertexID(prev),
			Kind: kind,
			Val:  int32(val),
			Val2: int32(val2),
		})
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("pregel: ragged packet: %d trailing bytes after %d records", len(rest), count)
	}
	return dst, nil
}
