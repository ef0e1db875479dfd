// Package crashfs is a recording, in-memory durable.FS for crash
// tests; no production code imports it. It logs every operation that
// changes the disk, can stop after any prefix of them (every later
// one fails with ErrCrashed), and reconstructs what a power loss at
// that point leaves behind:
//
//   - bytes a file had at its last Sync survive;
//   - bytes written since are dropped (Drop), half kept (Tear) or all
//     kept (Keep);
//   - under Drop and Tear, a directory's entries are as at its last
//     SyncDir: an entry created or renamed since is gone, one removed
//     since is back.
package crashfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/durable"
)

// ErrCrashed is what every operation after the stop point returns.
var ErrCrashed = errors.New("crashfs: crashed")

// Mode says what a crash does to data and entries nobody synced.
type Mode int

// The crash modes.
const (
	Drop Mode = iota
	Tear
	Keep
)

// Modes lists every Mode, for enumerating.
var Modes = []Mode{Drop, Tear, Keep}

func (m Mode) String() string { return [...]string{"drop", "tear", "keep"}[m] }

type inode struct {
	data   []byte // what the process reads; never mutated in place
	synced []byte // what a crash keeps
}

// FS is the recording file system; make one with New.
type FS struct {
	mu      sync.Mutex
	left    int // operations still allowed; negative = no limit
	ops     []string
	names   map[string]*inode // the namespace the process sees
	durable map[string]*inode // the namespace as of each directory's last SyncDir
}

// New returns an FS holding files, every byte and entry durable.
func New(files map[string][]byte) *FS {
	f := &FS{left: -1, names: map[string]*inode{}, durable: map[string]*inode{}}
	for name, data := range files {
		n := &inode{data: bytes.Clone(data)}
		n.synced = n.data
		f.names[name], f.durable[name] = n, n
	}
	return f
}

// StopAfter lets k more operations succeed (all of them if k < 0).
func (f *FS) StopAfter(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.left = k
}

// Ops returns the operations performed so far, in order.
func (f *FS) Ops() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ops...)
}

// Crash returns a fresh FS holding what a power loss now, in mode m,
// leaves on disk.
func (f *FS) Crash(m Mode) *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	ns := f.durable
	if m == Keep {
		ns = f.names
	}
	files := make(map[string][]byte, len(ns))
	for name, n := range ns {
		switch {
		case m == Keep:
			files[name] = n.data
		case m == Tear && bytes.HasPrefix(n.data, n.synced):
			files[name] = n.data[:len(n.synced)+(len(n.data)-len(n.synced))/2]
		default:
			files[name] = n.synced
		}
	}
	return New(files)
}

// ReadFile returns path's contents as the process sees them.
func (f *FS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n, ok := f.names[path]; ok {
		return bytes.Clone(n.data), nil
	}
	return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
}

// do runs one disk-changing operation under the lock, logged as op,
// or refuses it past the stop point.
func (f *FS) do(op string, path string, mutate func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left == 0 {
		return ErrCrashed
	}
	f.left--
	f.ops = append(f.ops, op+" "+filepath.Base(path))
	if err := mutate(); err != nil {
		return &fs.PathError{Op: op, Path: path, Err: err}
	}
	return nil
}

func (f *FS) OpenFile(path string, flag int) (durable.File, error) {
	h := &file{fs: f, name: path}
	err := f.do("open", path, func() error {
		n, ok := f.names[path]
		switch {
		case !ok && flag&os.O_CREATE == 0:
			return fs.ErrNotExist
		case !ok:
			n = &inode{}
			f.names[path] = n
		case flag&os.O_TRUNC != 0:
			n.data = nil
		}
		h.n = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (f *FS) Rename(from, to string) error {
	return f.do("rename", from, func() error {
		n, ok := f.names[from]
		if !ok {
			return fs.ErrNotExist
		}
		delete(f.names, from)
		f.names[to] = n
		return nil
	})
}

func (f *FS) Remove(path string) error {
	return f.do("remove", path, func() error {
		if _, ok := f.names[path]; !ok {
			return fs.ErrNotExist
		}
		delete(f.names, path)
		return nil
	})
}

func (f *FS) SyncDir(dir string) error {
	return f.do("syncdir", dir, func() error {
		for name := range f.durable {
			if filepath.Dir(name) == dir {
				delete(f.durable, name)
			}
		}
		for name, n := range f.names {
			if filepath.Dir(name) == dir {
				f.durable[name] = n
			}
		}
		return nil
	})
}

// file is an open handle. Writes land at the end: the writers append
// (O_APPEND) or fill a fresh file, nothing else.
type file struct {
	fs   *FS
	name string
	n    *inode
	off  int // read offset
}

func (h *file) Close() error { return nil }

func (h *file) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.off >= len(h.n.data) {
		return 0, io.EOF
	}
	k := copy(p, h.n.data[h.off:])
	h.off += k
	return k, nil
}

func (h *file) Write(p []byte) (int, error) {
	err := h.fs.do(fmt.Sprintf("write+%d", len(p)), h.name, func() error {
		h.n.data = append(bytes.Clone(h.n.data), p...)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (h *file) Sync() error {
	return h.fs.do("sync", h.name, func() error { h.n.synced = h.n.data; return nil })
}

func (h *file) Truncate(size int64) error {
	return h.fs.do("truncate", h.name, func() error { h.n.data = h.n.data[:size]; return nil })
}
