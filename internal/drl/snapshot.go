package drl

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pregel"
)

// Superstep-checkpoint state serialization (pregel.Snapshotter) for
// the labeling program. Every table is a section of the collect
// blobs' u32 records (wire.go), one record per vertex carrying both
// directions' lists. Persistent state (what survives runs — the
// accumulated batch labels) comes first so a run-boundary restore can
// stop after it; per-run state (visit status, inverted-list replicas)
// follows.

const snapVersion = 2

func readU32(blob []byte) (uint32, []byte, error) {
	if len(blob) < 4 {
		return 0, nil, fmt.Errorf("state blob truncated")
	}
	return binary.LittleEndian.Uint32(blob[:4]), blob[4:], nil
}

// appendPairMap encodes two vertex→ranks maps over the union of
// their keys as a count and then one u32 record (wire.go) per key.
// Keys are sorted so checkpoints of identical state are
// byte-identical — and because readRecord requires it.
func appendPairMap(blob []byte, m dirLists) []byte {
	keys := sortedKeys(m[0])
	for v := range m[1] {
		if _, ok := m[0][v]; !ok {
			keys = append(keys, v)
		}
	}
	slices.Sort(keys)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(keys)))
	for _, v := range keys {
		blob = appendRecord(blob, v, [2][]order.Rank{m[0][v], m[1][v]})
	}
	return blob
}

func readPairMap(blob []byte) (dirLists, []byte, error) {
	count, blob, err := readU32(blob)
	if err != nil {
		return dirLists{}, nil, err
	}
	m := newDirLists()
	prev := graph.VertexID(-1)
	for k := uint32(0); k < count; k++ {
		v, lists, rest, err := readRecord(blob, prev, math.MaxInt32)
		if err != nil {
			return m, nil, fmt.Errorf("state record %d of %d: %w", k, count, err)
		}
		for d, rs := range lists {
			if len(rs) > 0 {
				m[d][v] = rs
			}
		}
		prev, blob = v, rest
	}
	return m, blob, nil
}

// appendSeen encodes a visit-status set as a sorted u64 list.
func appendSeen(blob []byte, seen map[uint64]struct{}) []byte {
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(seen)))
	for _, k := range sortedKeys(seen) {
		blob = binary.LittleEndian.AppendUint64(blob, k)
	}
	return blob
}

func readSeen(blob []byte) (map[uint64]struct{}, []byte, error) {
	count, blob, err := readU32(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(blob) < 8*int(count) {
		return nil, nil, fmt.Errorf("visit-status section truncated")
	}
	seen := make(map[uint64]struct{}, count)
	for k := uint32(0); k < count; k++ {
		seen[binary.LittleEndian.Uint64(blob[:8])] = struct{}{}
		blob = blob[8:]
	}
	return seen, blob, nil
}

// EncodeState serializes the labeler's recoverable state. Persistent
// section: the label lists accumulated across batches. Per-run
// section: the in-batch visit status and candidate lists, the batch
// sources' shared prior labels, and the inverted-list replica.
func (p *batchProgram) EncodeState(w *pregel.Worker) ([]byte, error) {
	blob := []byte{snapVersion}
	local, _ := w.State.(*batchLocal)
	if local == nil {
		blob = append(blob, 0)
	} else {
		blob = append(blob, 1)
		blob = appendPairMap(blob, local.lab)
		blob = appendSeen(blob, local.seen)
		blob = appendPairMap(blob, local.list)
	}
	blob = appendPairMap(blob, p.shared.src)
	blob = appendPairMap(blob, p.shared.ibfs)
	return blob, nil
}

// DecodeState restores the blob. At a run boundary the blob is the
// previous batch's post-finish snapshot, restored onto this batch's
// fresh program: its visit status and replicas come back with the
// labels, and step 0 (Superstep, PreStep) replaces them.
func (p *batchProgram) DecodeState(w *pregel.Worker, blob []byte) error {
	if len(blob) < 2 {
		return fmt.Errorf("drl: state blob too short")
	}
	if blob[0] != snapVersion {
		return fmt.Errorf("drl: unknown state version %d", blob[0])
	}
	hasLocal := blob[1] == 1
	blob = blob[2:]
	if !hasLocal {
		w.State = nil
		return nil
	}
	local := &batchLocal{}
	var err error
	read := func(m *dirLists) {
		if err == nil {
			*m, blob, err = readPairMap(blob)
		}
	}
	read(&local.lab)
	if err == nil {
		local.seen, blob, err = readSeen(blob)
	}
	read(&local.list)
	read(&p.shared.src)
	read(&p.shared.ibfs)
	if err == nil && len(blob) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(blob))
	}
	if err != nil {
		return fmt.Errorf("drl: worker %d's checkpoint: %w", w.ID, err)
	}
	w.State = local
	return nil
}
