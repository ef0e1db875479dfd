package drl

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pregel"
)

// Superstep-checkpoint state serialization (pregel.Snapshotter) for
// the labeling program. The encoding reuses the rank-list record
// layout of the collect blobs and the on-disk index (internal/label):
// little-endian u32 headers followed by u32 ranks, here grouped into
// sections. Persistent state (what survives runs — the
// accumulated batch labels) comes first so a run-boundary restore can
// stop after it; per-run state (visit status, inverted-list replicas)
// follows.

const snapVersion = 2

func readU32(blob []byte) (uint32, []byte, error) {
	if len(blob) < 4 {
		return 0, nil, fmt.Errorf("drl: truncated state blob")
	}
	return binary.LittleEndian.Uint32(blob[:4]), blob[4:], nil
}

// appendPairMap encodes two vertex→ranks maps over the union of
// their keys as (count, then per key: vertex, lenA, lenB, ranks...)
// records — the same record shape as the collect blobs. Keys are
// sorted so checkpoints of identical state are byte-identical.
func appendPairMap(blob []byte, a, b map[graph.VertexID][]order.Rank) []byte {
	keys := make([]graph.VertexID, 0, len(a)+len(b))
	for v := range a {
		keys = append(keys, v)
	}
	for v := range b {
		if _, ok := a[v]; !ok {
			keys = append(keys, v)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(keys)))
	for _, v := range keys {
		blob = appendResult(blob, v, a[v], b[v])
	}
	return blob
}

func readPairMap(blob []byte) (a, b map[graph.VertexID][]order.Rank, rest []byte, err error) {
	count, blob, err := readU32(blob)
	if err != nil {
		return nil, nil, nil, err
	}
	a = make(map[graph.VertexID][]order.Rank, count)
	b = make(map[graph.VertexID][]order.Rank, count)
	for k := uint32(0); k < count; k++ {
		if len(blob) < 12 {
			return nil, nil, nil, fmt.Errorf("drl: truncated state record")
		}
		v := graph.VertexID(binary.LittleEndian.Uint32(blob[0:4]))
		nA := int(binary.LittleEndian.Uint32(blob[4:8]))
		nB := int(binary.LittleEndian.Uint32(blob[8:12]))
		blob = blob[12:]
		if len(blob) < 4*(nA+nB) {
			return nil, nil, nil, fmt.Errorf("drl: truncated state record")
		}
		take := func(n int) []order.Rank {
			if n == 0 {
				return nil
			}
			rs := make([]order.Rank, n)
			for i := 0; i < n; i++ {
				rs[i] = order.Rank(binary.LittleEndian.Uint32(blob[4*i:]))
			}
			blob = blob[4*n:]
			return rs
		}
		if rs := take(nA); rs != nil {
			a[v] = rs
		}
		if rs := take(nB); rs != nil {
			b[v] = rs
		}
	}
	return a, b, blob, nil
}

// appendSeen encodes a visit-status set as a sorted u64 list.
func appendSeen(blob []byte, seen map[uint64]struct{}) []byte {
	keys := make([]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(keys)))
	var rec [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(rec[:], k)
		blob = append(blob, rec[:]...)
	}
	return blob
}

func readSeen(blob []byte) (map[uint64]struct{}, []byte, error) {
	count, blob, err := readU32(blob)
	if err != nil {
		return nil, nil, err
	}
	if len(blob) < 8*int(count) {
		return nil, nil, fmt.Errorf("drl: truncated visit-status section")
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
		blob = appendPairMap(blob, local.in, local.out)
		blob = appendSeen(blob, local.seen)
		blob = appendPairMap(blob, local.listFwd, local.listBwd)
	}
	blob = appendPairMap(blob, p.shared.srcOut, p.shared.srcIn)
	blob = appendPairMap(blob, p.shared.ibfsFwd, p.shared.ibfsBwd)
	return blob, nil
}

// DecodeState restores the blob. A run-boundary restore (sameRun
// false — the blob is the previous batch's post-finish snapshot onto
// this batch's fresh program) applies only the accumulated labels and
// leaves the per-run state empty, exactly as a fresh BeginRun would.
func (p *batchProgram) DecodeState(w *pregel.Worker, blob []byte, sameRun bool) error {
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
	if local.in, local.out, blob, err = readPairMap(blob); err != nil {
		return err
	}
	if sameRun {
		if local.seen, blob, err = readSeen(blob); err != nil {
			return err
		}
		if local.listFwd, local.listBwd, blob, err = readPairMap(blob); err != nil {
			return err
		}
		if p.shared.srcOut, p.shared.srcIn, blob, err = readPairMap(blob); err != nil {
			return err
		}
		if p.shared.ibfsFwd, p.shared.ibfsBwd, _, err = readPairMap(blob); err != nil {
			return err
		}
	}
	w.State = local
	return nil
}
