package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/durable/crashfs"
)

// TestWriteFileCrashPoints replaces a file and crashes after every
// prefix of the operations that takes, in every crash mode: the target
// holds exactly the old bytes or exactly the new ones, and the new ones
// once WriteFile has returned.
func TestWriteFileCrashPoints(t *testing.T) {
	const path = "/db/served.idx"
	old := []byte("the index being served")
	fresh := bytes.Repeat([]byte("the rebuilt index "), 5000)
	write := func(w io.Writer) error { _, err := w.Write(fresh); return err }

	fs := crashfs.New(map[string][]byte{path: old})
	if err := durable.WriteFileFS(fs, path, write); err != nil {
		t.Fatal(err)
	}
	ops := fs.Ops()
	for k := 0; k <= len(ops); k++ {
		for _, m := range crashfs.Modes {
			fs := crashfs.New(map[string][]byte{path: old})
			fs.StopAfter(k)
			err := durable.WriteFileFS(fs, path, write)
			if err != nil && !errors.Is(err, crashfs.ErrCrashed) {
				t.Fatal(err)
			}
			got, rerr := fs.Crash(m).ReadFile(path)
			name := fmt.Sprintf("after %d/%s", k, m)
			switch {
			case rerr != nil:
				t.Fatalf("%s: target gone: %v", name, rerr)
			case err == nil && !bytes.Equal(got, fresh):
				t.Fatalf("%s: WriteFile returned, but a crash leaves %d bytes, not the new file", name, len(got))
			case !bytes.Equal(got, old) && !bytes.Equal(got, fresh):
				t.Fatalf("%s: target holds %d bytes, neither the old file nor the new", name, len(got))
			}
		}
	}
	t.Logf("%d operations, %d crash points", len(ops), (len(ops)+1)*len(crashfs.Modes))
}

// TestWriteFileFailureKeepsTarget: a writer that fails halfway leaves
// the target byte-identical and no temp file behind.
func TestWriteFileFailureKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "served.idx")
	old := []byte("the index being served")
	if err := durable.WriteFile(path, func(w io.Writer) error { _, err := w.Write(old); return err }); err != nil {
		t.Fatal(err)
	}
	errDiskFull := errors.New("no space left on device")
	err := durable.WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte{1}, 100_000)); err != nil {
			return err
		}
		return errDiskFull
	})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("target after a failed write: %q, %v", got, err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory after a failed write: %v, %v", ents, err)
	}
}
