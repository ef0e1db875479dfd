package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/durable/crashfs"
	"repro/internal/graph"
)

const crashPath = "/db/edges.wal"

// walRun is one run of walScript against a crashfs: what it wrote and
// what it acknowledged.
type walRun struct {
	t       *testing.T
	fs      *crashfs.FS
	l       *Log
	written []Record // every record whose Write returned, in seq order
	acked   uint64   // the highest seq whose Append/SyncThrough returned
}

// walScript is the scripted life of a log. Every file operation any
// step makes is a crash point of TestWALCrashPoints.
var walScript = []struct {
	name string
	run  func(*walRun) error
}{
	{"create", (*walRun).open},
	{"append 1", func(r *walRun) error { return r.append(OpInsert, 1, 2) }},
	{"append 2", func(r *walRun) error { return r.append(OpInsert, 2, 3) }},
	{"append 3", func(r *walRun) error { return r.append(OpDelete, 1, 2) }},
	{"two appends, one fsync", (*walRun).groupCommit},
	{"close", func(r *walRun) error { return r.l.Close() }},
	{"reopen", (*walRun).open},
	{"append 6", func(r *walRun) error { return r.append(OpInsert, 9, 1) }},
}

func (r *walRun) open() (err error) {
	r.l, err = open(r.fs, crashPath)
	return err
}

func (r *walRun) write(op Op, u, v graph.VertexID) (uint64, error) {
	seq, err := r.l.Write(op, u, v)
	if err == nil {
		r.written = append(r.written, Record{Seq: seq, Op: op, U: u, V: v})
	}
	return seq, err
}

func (r *walRun) append(op Op, u, v graph.VertexID) error {
	seq, err := r.write(op, u, v)
	if err == nil {
		err = r.l.SyncThrough(seq)
	}
	if err == nil {
		r.ack(seq)
	}
	return err
}

// groupCommit writes two records, then syncs them from two goroutines
// at once: whichever syncs first covers both.
func (r *walRun) groupCommit() error {
	var seqs [2]uint64
	for i, e := range [2][2]graph.VertexID{{4, 5}, {2, 3}} {
		seq, err := r.write(OpInsert, e[0], e[1])
		if err != nil {
			return err
		}
		seqs[i] = seq
	}
	var wg sync.WaitGroup
	var errs [2]error
	for i := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.l.SyncThrough(seqs[i])
		}()
	}
	wg.Wait()
	for i, seq := range seqs {
		if errs[i] == nil {
			r.ack(seq)
		}
	}
	return errors.Join(errs[:]...)
}

// ack records an acknowledgement, after checking that a crash right
// now — unsynced bytes and entries dropped — would keep the record.
func (r *walRun) ack(seq uint64) {
	r.t.Helper()
	data, err := r.fs.Crash(crashfs.Drop).ReadFile(crashPath)
	if err != nil {
		r.t.Fatalf("seq %d acknowledged, but a crash now loses the log: %v", seq, err)
	}
	if got := decodeAll(data); uint64(len(got)) < seq {
		r.t.Fatalf("seq %d acknowledged, but a crash now keeps only %d records", seq, len(got))
	}
	r.acked = max(r.acked, seq)
}

// decodeAll decodes a log image up to its first defect.
func decodeAll(data []byte) []Record {
	var recs []Record
	if len(data) < len(header) {
		return nil
	}
	prev := uint64(0)
	for off := len(header); off < len(data); {
		rec, n, err := DecodeRecord(data[off:], prev)
		if err != nil {
			break
		}
		recs, prev, off = append(recs, rec), rec.Seq, off+n
	}
	return recs
}

// runWALScript runs walScript on fs up to the first failing step.
func runWALScript(t *testing.T, fs *crashfs.FS) *walRun {
	r := &walRun{t: t, fs: fs}
	for _, step := range walScript {
		if err := step.run(r); err != nil {
			if !errors.Is(err, crashfs.ErrCrashed) {
				t.Fatalf("%s: %v", step.name, err)
			}
			break
		}
	}
	return r
}

// TestWALCrashPoints crashes the log after every prefix of the file
// operations walScript makes, in every crash mode, and again after
// every prefix of the recovering Open's own operations. At each point
// Open must succeed and recover a prefix of the records written that
// holds every record acknowledged.
func TestWALCrashPoints(t *testing.T) {
	ops := runWALScript(t, crashfs.New(nil)).fs.Ops()
	points := 0
	for k := 0; k <= len(ops); k++ {
		for _, m := range crashfs.Modes {
			name := fmt.Sprintf("after %d (%s)/%s", k, opAt(ops, k), m)
			fs := crashfs.New(nil)
			fs.StopAfter(k)
			r := runWALScript(t, fs)
			disk := fs.Crash(m)
			// The recovery may crash too: stop it after j operations for
			// every j until it completes, then recover from that.
			for j := 0; ; j++ {
				again := disk.Crash(crashfs.Keep) // a copy
				again.StopAfter(j)
				l, err := open(again, crashPath)
				if err == nil {
					points++
					again.StopAfter(-1)
					checkRecovered(t, name, again, l, r)
					break
				}
				if !errors.Is(err, crashfs.ErrCrashed) {
					t.Fatalf("%s: Open: %v", name, err)
				}
				points++
				after := again.Crash(m)
				l, err = open(after, crashPath)
				if err != nil {
					t.Fatalf("%s, recovery crashed after %d: Open: %v", name, j, err)
				}
				checkRecovered(t, fmt.Sprintf("%s, recovery crashed after %d", name, j), after, l, r)
			}
		}
	}
	t.Logf("%d operations, %d crash points", len(ops), points)
}

func opAt(ops []string, k int) string {
	if k == 0 {
		return "start"
	}
	return ops[k-1]
}

// checkRecovered checks l, just opened on disk, against the run r.
func checkRecovered(t *testing.T, name string, disk *crashfs.FS, l *Log, r *walRun) {
	t.Helper()
	got := replayAll(t, l)
	if len(got) > len(r.written) {
		t.Fatalf("%s: recovered %d records, only %d written", name, len(got), len(r.written))
	}
	for i, rec := range got {
		if rec != r.written[i] {
			t.Fatalf("%s: record %d is %+v, written %+v", name, i, rec, r.written[i])
		}
	}
	if uint64(len(got)) < r.acked {
		t.Fatalf("%s: recovered %d records, %d acknowledged", name, len(got), r.acked)
	}
	// The recovered log takes writes, and they land after its last
	// record, not behind a tail the next Open would cut.
	seq, err := l.Append(OpInsert, 7, 7)
	if err != nil || seq != uint64(len(got))+1 {
		t.Fatalf("%s: append after recovery: seq %d, %v", name, seq, err)
	}
	if data, err := disk.Crash(crashfs.Drop).ReadFile(crashPath); err != nil || uint64(len(decodeAll(data))) != seq {
		t.Fatalf("%s: the record appended after recovery does not survive a crash", name)
	}
}
