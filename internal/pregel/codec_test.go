package pregel

import (
	"bytes"
	"encoding/binary"
	"net/rpc"
	"strings"
	"testing"

	"repro/internal/graph"
)

// goldenMsgs and goldenPacket pin the v2 wire format: version byte,
// uvarint record count, then per record the uvarint Dst delta (records
// sorted by Dst), the kind byte, and zigzag-varint Val and Val2. Any
// codec change that alters these bytes must bump wireVersion.
var goldenMsgs = []Msg{
	{Dst: 7, Kind: 1, Val: 5},
	{Dst: 3, Kind: 0, Val: -2, Val2: 1},
	{Dst: 7, Kind: 2, Val: 300, Val2: -1},
}

var goldenPacket = []byte{
	0x02,       // version
	0x03,       // 3 records
	0x03,       // Dst 3 (delta 3)
	0x00,       // kind 0
	0x03,       // Val -2 (zigzag)
	0x02,       // Val2 1 (zigzag)
	0x04,       // Dst 7 (delta 4)
	0x01,       // kind 1
	0x0a,       // Val 5 (zigzag)
	0x00,       // Val2 0
	0x00,       // Dst 7 (delta 0)
	0x02,       // kind 2
	0xd8, 0x04, // Val 300 (zigzag 600, two bytes)
	0x01, // Val2 -1 (zigzag)
}

func TestPacketGoldenBytes(t *testing.T) {
	in := append([]Msg(nil), goldenMsgs...)
	buf, n, err := encodePacket(nil, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(goldenMsgs) {
		t.Fatalf("encoded %d records, want %d", n, len(goldenMsgs))
	}
	if !bytes.Equal(buf, goldenPacket) {
		t.Fatalf("wire bytes drifted from the golden fixture:\n got %#v\nwant %#v", buf, goldenPacket)
	}
	out, err := decodePacket(goldenPacket, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Msg{goldenMsgs[1], goldenMsgs[0], goldenMsgs[2]} // sorted by Dst, stable
	if len(out) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, out[i], want[i])
		}
	}
}

// TestDecodeRejectsRaggedTail is the regression test for the v1 silent
// drop: a packet whose byte count does not match its declared records
// must be a hard error, never a partially-decoded inbox.
func TestDecodeRejectsRaggedTail(t *testing.T) {
	// Trailing garbage after the declared records.
	ragged := append(append([]byte(nil), goldenPacket...), 0x55)
	if _, err := decodePacket(ragged, nil); err == nil {
		t.Error("trailing bytes after the last record must be an error")
	}
	// Every proper prefix is a truncation of some record (or of the
	// header) and must also fail.
	for cut := 2; cut < len(goldenPacket); cut++ {
		if _, err := decodePacket(goldenPacket[:cut], nil); err == nil {
			t.Errorf("truncation to %d bytes silently accepted", cut)
		}
	}
}

func TestDecodeRejectsBadHeader(t *testing.T) {
	if _, err := decodePacket(nil, nil); err == nil {
		t.Error("empty packet must be an error")
	}
	if _, err := decodePacket([]byte{0x01, 0x00}, nil); err == nil {
		t.Error("v1 version byte must be rejected")
	}
	// Record count larger than the remaining payload could ever hold.
	if _, err := decodePacket([]byte{wireVersion, 0xff, 0xff, 0x03}, nil); err == nil {
		t.Error("absurd record count must be rejected before allocating")
	}
	if _, err := decodePacket(binary.AppendUvarint([]byte{wireVersion}, 1<<62), nil); err == nil {
		t.Error("a record count no slice can hold must be rejected before allocating")
	}
	if _, err := decodePacket([]byte{wireVersion}, nil); err == nil {
		t.Error("a packet without its record count must be rejected")
	}
	// One record whose fields a decoder must not wrap or skip past:
	// the Dst delta, Val and Val2, each over int32 or an overlong
	// varint.
	overlong := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	record := func(dst, val, val2 []byte) []byte {
		p := append([]byte{wireVersion, 1}, dst...)
		p = append(p, 0) // kind
		return append(append(p, val...), val2...)
	}
	zero := []byte{0}
	for name, p := range map[string][]byte{
		"Dst over int32":   record(binary.AppendUvarint(nil, 1<<31), zero, zero),
		"Dst overlong":     record(overlong, zero, zero),
		"Val over int32":   record(zero, binary.AppendVarint(nil, 1<<31), zero),
		"Val overlong":     record(zero, overlong, zero),
		"Val2 below int32": record(zero, zero, binary.AppendVarint(nil, -1<<31-1)),
	} {
		if _, err := decodePacket(p, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCodecBoundaryValues covers the full int32 range the v1 format
// silently truncated through unchecked uint32 casts.
func TestCodecBoundaryValues(t *testing.T) {
	in := []Msg{
		{Dst: 0, Kind: 0, Val: -2147483648, Val2: 2147483647},
		{Dst: 2147483647, Kind: 255, Val: 2147483647, Val2: -2147483648},
	}
	want := append([]Msg(nil), in...)
	buf, n, err := encodePacket(nil, in, nil)
	if err != nil || n != 2 {
		t.Fatalf("encode: n=%d err=%v", n, err)
	}
	out, err := decodePacket(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, out[i], want[i])
		}
	}
	// A negative Dst is not a vertex; the encoder must refuse it
	// instead of wrapping it through a uint32 cast like v1 did.
	if _, _, err := encodePacket(nil, []Msg{{Dst: -1}}, nil); err == nil {
		t.Error("negative Dst must be an encode error")
	}
}

func TestDedupCombiner(t *testing.T) {
	one := []Msg{{Dst: 4, Kind: 1, Val: 9}}
	if got := DedupCombiner(one); len(got) != 1 || got[0] != one[0] {
		t.Errorf("single message changed: %+v", got)
	}
	run := []Msg{
		{Dst: 4, Kind: 1, Val: 9},
		{Dst: 4, Kind: 0, Val: 9},
		{Dst: 4, Kind: 1, Val: 9},
		{Dst: 4, Kind: 1, Val: 9, Val2: 1},
		{Dst: 4, Kind: 0, Val: 9},
	}
	got := DedupCombiner(run)
	want := []Msg{
		{Dst: 4, Kind: 0, Val: 9},
		{Dst: 4, Kind: 1, Val: 9},
		{Dst: 4, Kind: 1, Val: 9, Val2: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d messages, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("message %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// dupSendProgram sends every edge message 4 times in step 0.
type dupSendProgram struct{}

func (p *dupSendProgram) Superstep(w *Worker, step int) (bool, error) {
	if step != 0 {
		return false, nil
	}
	w.OwnedVertices(func(v graph.VertexID) {
		for _, nb := range w.Graph.OutNeighbors(v) {
			for k := 0; k < 4; k++ {
				w.Send(Msg{Dst: nb, Val: int32(v)})
			}
		}
	})
	return false, nil
}

func (p *dupSendProgram) Finish(w *Worker) error { return nil }

// dupSendCombined is the same program with a registered combiner.
type dupSendCombined struct{ dupSendProgram }

func (p *dupSendCombined) MessageCombiner() Combiner { return DedupCombiner }

// TestCombinerReducesWireTraffic: with the dedup combiner registered,
// both the Messages metric and the wire bytes must reflect the
// combined (4×-smaller) record set.
func TestCombinerReducesWireTraffic(t *testing.T) {
	g := ring(16)
	plain, err := New(g, Config{Workers: 4}).Run(&dupSendProgram{})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := New(g, Config{Workers: 4}).Run(&dupSendCombined{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Messages != 64 {
		t.Errorf("plain run sent %d records, want 64 (16 edges × 4)", plain.Messages)
	}
	if combined.Messages != 16 {
		t.Errorf("combined run sent %d records, want 16", combined.Messages)
	}
	if combined.BytesRemote >= plain.BytesRemote {
		t.Errorf("combiner did not shrink remote bytes: %d vs %d", combined.BytesRemote, plain.BytesRemote)
	}
}

// bcastCaptureProgram records each worker's BcastIn slice header so the
// test can probe aliasing after the run.
type bcastCaptureProgram struct {
	views [][][]byte
}

func (p *bcastCaptureProgram) Superstep(w *Worker, step int) (bool, error) {
	if step == 0 {
		w.Broadcast([]byte{byte(w.ID)})
		return true, nil
	}
	if step == 1 {
		p.views[w.ID] = w.BcastIn
	}
	return false, nil
}

func (p *bcastCaptureProgram) Finish(w *Worker) error { return nil }

// TestBcastInPerWorkerIsolation is the regression test for the shared
// bcasts slice: every worker must get its own BcastIn slice header, so
// a program clearing or reordering its own inbox slice cannot corrupt
// a sibling worker's view.
func TestBcastInPerWorkerIsolation(t *testing.T) {
	const p = 3
	prog := &bcastCaptureProgram{views: make([][][]byte, p)}
	if _, err := New(ring(9), Config{Workers: p}).Run(prog); err != nil {
		t.Fatal(err)
	}
	for i, view := range prog.views {
		if len(view) != p {
			t.Fatalf("worker %d saw %d blobs, want %d", i, len(view), p)
		}
	}
	// Mutate worker 0's slice; worker 1's view must be untouched.
	prog.views[0][0] = nil
	prog.views[0][1], prog.views[0][2] = prog.views[0][2], prog.views[0][1]
	for j, blob := range prog.views[1] {
		if len(blob) != 1 || blob[0] != byte(j) {
			t.Fatalf("worker 1's BcastIn aliased worker 0's: slot %d = %v", j, blob)
		}
	}
}

// TestRPCStepRejectsCorruptPacket: a corrupt inbox packet must surface
// as a permanent Step error through the RPC transport, and must not
// advance the worker's superstep state.
func TestRPCStepRejectsCorruptPacket(t *testing.T) {
	addr := startWorker(t)
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call(RPCServiceName+".Init", InitArgs{WorkerID: 0, NumWorkers: 1, GraphPath: graphFile(t)}, &InitReply{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(RPCServiceName+".BeginRun", BeginRunArgs{Program: "test-noop"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	var sr StepReply
	err = c.Call(RPCServiceName+".Step", StepArgs{Step: 0, Packets: [][][]byte{{{0x7f, 0x01}}}}, &sr)
	if err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("bad-version packet: got %v, want a wire-version error", err)
	}
	ragged := append(append([]byte(nil), goldenPacket...), 0xee)
	err = c.Call(RPCServiceName+".Step", StepArgs{Step: 0, Packets: [][][]byte{{ragged}}}, &sr)
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("ragged packet: got %v, want a ragged-tail error", err)
	}
	// The failed deliveries must not have consumed step 0.
	good, _, err := encodePacket(nil, []Msg{{Dst: 1, Val: 7}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Call(RPCServiceName+".Step", StepArgs{Step: 0, Packets: [][][]byte{{good}}}, &sr); err != nil {
		t.Fatalf("step 0 retry after corrupt packets: %v", err)
	}
}

// xProgram exercises messages (with duplicates for the combiner) and a
// broadcast, identically under both transports.
type xProgram struct{}

func (p *xProgram) Superstep(w *Worker, step int) (bool, error) {
	if step != 0 {
		return false, nil
	}
	w.Broadcast([]byte{0xa0, byte(w.ID)})
	w.OwnedVertices(func(v graph.VertexID) {
		for _, nb := range w.Graph.OutNeighbors(v) {
			w.Send(Msg{Dst: nb, Val: int32(v)})
			w.Send(Msg{Dst: nb, Val: int32(v)}) // duplicate: combined away
		}
	})
	return false, nil
}

func (p *xProgram) Finish(w *Worker) error    { return nil }
func (p *xProgram) MessageCombiner() Combiner { return DedupCombiner }

func init() {
	RegisterRPC("test-x", func(*Host, map[string]string) (Program, error) { return &xProgram{}, nil })
}

// TestCrossTransportMetricsMatch: one in-process host holding both
// partitions and two hosts behind TCP run the same loop and the same
// Step, and must therefore account the same Messages, BytesLocal,
// BytesRemote, and BcastBytes for the same program on the same graph.
func TestCrossTransportMetricsMatch(t *testing.T) {
	path := graphFile(t)
	g, err := graph.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	engMet, err := New(g, Config{Workers: p}).Run(&xProgram{})
	if err != nil {
		t.Fatal(err)
	}

	addrs := []string{startWorker(t), startWorker(t)}
	m, err := DialCluster(addrs, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.RunNamed("test-x", nil); err != nil {
		t.Fatal(err)
	}

	if m.Metrics.Messages != engMet.Messages {
		t.Errorf("Messages: rpc %d, in-process %d", m.Metrics.Messages, engMet.Messages)
	}
	if m.Metrics.BytesLocal != engMet.BytesLocal {
		t.Errorf("BytesLocal: rpc %d, in-process %d", m.Metrics.BytesLocal, engMet.BytesLocal)
	}
	if m.Metrics.BytesRemote != engMet.BytesRemote {
		t.Errorf("BytesRemote: rpc %d, in-process %d", m.Metrics.BytesRemote, engMet.BytesRemote)
	}
	if m.Metrics.BcastBytes != engMet.BcastBytes {
		t.Errorf("BcastBytes: rpc %d, in-process %d", m.Metrics.BcastBytes, engMet.BcastBytes)
	}
	if m.Metrics.Supersteps != engMet.Supersteps {
		t.Errorf("Supersteps: rpc %d, in-process %d", m.Metrics.Supersteps, engMet.Supersteps)
	}
}
