// Package durable is the one place a file reaches disk. Every writer
// in the module — the edge log (internal/wal), graph files, index
// files, traces — goes through its file-ops seam, FS, whose only
// production implementation is the os package. Tests substitute a
// recording implementation (internal/durable/crashfs) that stops after
// any prefix of operations and shows what a crash there leaves behind.
//
// Whole files are written by WriteFile: temp file beside the target,
// fsync, rename over the target, fsync the directory. A reader of the
// target sees the previous file or the new one, never a torn mix, even
// across a power loss.
package durable

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// FS is the file-ops seam: the os calls the writers make, and nothing
// more. Writes go to the end of the file (O_APPEND or a fresh file).
type FS interface {
	// OpenFile opens path with the os.OpenFile flags (mode 0o666
	// before umask).
	OpenFile(path string, flag int) (File, error)
	Rename(from, to string) error
	Remove(path string) error
	// SyncDir makes the directory's entries — files created, renamed
	// or removed in it — durable.
	SyncDir(dir string) error
}

// File is an open file as the writers use it; *os.File is one.
type File interface {
	io.ReadWriteCloser
	Sync() error
	Truncate(size int64) error
}

// OS is the production FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(path string, flag int) (File, error) {
	f, err := os.OpenFile(path, flag, 0o666)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile replaces path with what write emits, atomically: write
// fills path+".tmp" through a buffer, which is fsynced, closed and
// renamed over path before the directory is fsynced. If write or any
// step fails, path keeps its old contents and the temp file is
// removed. One writer per path at a time.
func WriteFile(path string, write func(io.Writer) error) error {
	return WriteFileFS(OS, path, write)
}

// WriteFileFS is WriteFile through fsys.
func WriteFileFS(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best effort: the error that matters is err
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
