package drl

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pregel"
)

// FuzzSnapshotRoundTrip drives arbitrary state shapes through the
// checkpoint codecs and checks two properties on every input:
//
//  1. Round trip: decode(encode(state)) reproduces the state exactly.
//  2. Canonical form: re-encoding the decoded state is byte-identical
//     to the first encoding — the property superstep checkpointing
//     leans on, since a restore followed by a checkpoint must not
//     produce a spuriously "different" blob.
//
// The section codecs (appendSeen/readSeen, appendPairMap/readPairMap)
// are checked in isolation and then composed through the labeling
// program's EncodeState/DecodeState pair.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add([]byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		// Derive a visit-status set and a pair of vertex→ranks maps
		// from the fuzz input. Duplicate ranks per vertex and keys
		// present in only one map are all legal states.
		seen := map[uint64]struct{}{}
		fwd := map[graph.VertexID][]order.Rank{}
		bwd := map[graph.VertexID][]order.Rank{}
		for i := 0; i+8 <= len(data); i += 8 {
			k := binary.LittleEndian.Uint64(data[i:])
			seen[k] = struct{}{}
			v := graph.VertexID(uint32(k) % 1024)
			r := order.Rank(uint32(k>>32) % 1024)
			switch (int(shape) + i/8) % 3 {
			case 0:
				fwd[v] = append(fwd[v], r)
			case 1:
				bwd[v] = append(bwd[v], r)
			default:
				fwd[v] = append(fwd[v], r)
				bwd[v] = append(bwd[v], r)
			}
		}

		// Visit-status section.
		sb := appendSeen(nil, seen)
		gotSeen, rest, err := readSeen(sb)
		if err != nil {
			t.Fatalf("readSeen: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("readSeen left %d trailing bytes", len(rest))
		}
		if !reflect.DeepEqual(gotSeen, seen) {
			t.Fatalf("seen set changed across round trip: %d keys in, %d out", len(seen), len(gotSeen))
		}
		if sb2 := appendSeen(nil, gotSeen); !bytes.Equal(sb, sb2) {
			t.Fatal("re-encoding the decoded seen set is not byte-identical")
		}

		// Label/pair-map section.
		pb := appendPairMap(nil, dirLists{fwd, bwd})
		got, rest, err := readPairMap(pb)
		if err != nil {
			t.Fatalf("readPairMap: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("readPairMap left %d trailing bytes", len(rest))
		}
		if !reflect.DeepEqual(got, dirLists{fwd, bwd}) {
			t.Fatal("pair maps changed across round trip")
		}
		if pb2 := appendPairMap(nil, got); !bytes.Equal(pb, pb2) {
			t.Fatal("re-encoding the decoded pair maps is not byte-identical")
		}

		// Whole-checkpoint composition: a program state built from the
		// same material, encoded, restored into a fresh program, and
		// encoded again must reproduce the first blob exactly.
		local := &batchLocal{lab: got, seen: seen, list: dirLists{fwd, bwd}}
		w := &pregel.Worker{State: local}
		p1 := &batchProgram{shared: &batchShared{src: dirLists{bwd, fwd}, ibfs: dirLists{fwd, bwd}}}
		blob, err := p1.EncodeState(w)
		if err != nil {
			t.Fatalf("EncodeState: %v", err)
		}

		p2 := &batchProgram{shared: newBatchShared(nil, dirGraphs{}, Span{}, nil)}
		w2 := &pregel.Worker{}
		if err := p2.DecodeState(w2, blob); err != nil {
			t.Fatalf("DecodeState: %v", err)
		}
		blob2, err := p2.EncodeState(w2)
		if err != nil {
			t.Fatalf("re-EncodeState: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("checkpoint not byte-stable across restore: %d bytes then %d bytes", len(blob), len(blob2))
		}
	})
}

// FuzzSnapshotDecodeArbitrary feeds raw bytes to the checkpoint
// decoder: it must reject or accept without panicking, and any
// accepted blob must re-encode to a decode-equivalent state (the
// decoder never fabricates state it cannot round-trip).
func FuzzSnapshotDecodeArbitrary(f *testing.F) {
	f.Add([]byte{snapVersion, 0})
	f.Add([]byte{snapVersion, 1, 0, 0, 0, 0})
	f.Add([]byte{snapVersion, 1})
	f.Fuzz(func(t *testing.T, blob []byte) {
		p := &batchProgram{shared: newBatchShared(nil, dirGraphs{}, Span{}, nil)}
		w := &pregel.Worker{}
		if err := p.DecodeState(w, blob); err != nil {
			return // rejected cleanly
		}
		re, err := p.EncodeState(w)
		if err != nil {
			t.Fatalf("EncodeState after accepting decode: %v", err)
		}
		p2 := &batchProgram{shared: newBatchShared(nil, dirGraphs{}, Span{}, nil)}
		w2 := &pregel.Worker{}
		if err := p2.DecodeState(w2, re); err != nil {
			t.Fatalf("decoder rejected its own re-encoding: %v", err)
		}
		re2, err := p2.EncodeState(w2)
		if err != nil {
			t.Fatalf("re-EncodeState: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("re-encoded checkpoint is not a fixed point of decode∘encode")
		}
	})
}
