package main

import (
	"os"
	"sync/atomic"
	"time"

	"pvoronoi/internal/vfs"
)

// fsCounters are the device-layer counts a timingFS accumulates: calls,
// bytes and time in each kind of call. Syncs include directory syncs.
type fsCounters struct {
	writes, writeBytes, writeNs atomic.Int64
	reads, readBytes, readNs    atomic.Int64
	syncs, syncNs               atomic.Int64
}

// fsSnapshot is a point-in-time copy of fsCounters, for deltas.
type fsSnapshot struct {
	writes, writeBytes, writeNs int64
	reads, readBytes, readNs    int64
	syncs, syncNs               int64
}

func (c *fsCounters) snapshot() fsSnapshot {
	return fsSnapshot{
		writes: c.writes.Load(), writeBytes: c.writeBytes.Load(), writeNs: c.writeNs.Load(),
		reads: c.reads.Load(), readBytes: c.readBytes.Load(), readNs: c.readNs.Load(),
		syncs: c.syncs.Load(), syncNs: c.syncNs.Load(),
	}
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	return fsSnapshot{
		writes: a.writes - b.writes, writeBytes: a.writeBytes - b.writeBytes, writeNs: a.writeNs - b.writeNs,
		reads: a.reads - b.reads, readBytes: a.readBytes - b.readBytes, readNs: a.readNs - b.readNs,
		syncs: a.syncs - b.syncs, syncNs: a.syncNs - b.syncNs,
	}
}

// timingFS wraps a vfs.FS and counts what the durable layer asks of the
// filesystem. It is passed in through Options.FS, so the WAL and
// checkpoint code run unchanged on top of it.
type timingFS struct {
	inner vfs.FS
	c     *fsCounters
}

func newTimingFS(inner vfs.FS) *timingFS { return &timingFS{inner: inner, c: &fsCounters{}} }

func (t *timingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, c: t.c}, nil
}

func (t *timingFS) Create(name string) (vfs.File, error) { return t.wrap(t.inner.Create(name)) }
func (t *timingFS) Open(name string) (vfs.File, error)   { return t.wrap(t.inner.Open(name)) }

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return t.wrap(t.inner.OpenFile(name, flag, perm))
}

func (t *timingFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.ReadFile(name)
	t.c.readNs.Add(int64(time.Since(start)))
	t.c.reads.Add(1)
	t.c.readBytes.Add(int64(len(b)))
	return b, err
}

func (t *timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	start := time.Now()
	err := t.inner.WriteFile(name, data, perm)
	t.c.writeNs.Add(int64(time.Since(start)))
	t.c.writes.Add(1)
	t.c.writeBytes.Add(int64(len(data)))
	return err
}

func (t *timingFS) Rename(oldpath, newpath string) error { return t.inner.Rename(oldpath, newpath) }
func (t *timingFS) Remove(name string) error             { return t.inner.Remove(name) }

func (t *timingFS) Truncate(name string, size int64) error { return t.inner.Truncate(name, size) }

func (t *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return t.inner.MkdirAll(path, perm)
}

func (t *timingFS) Glob(pattern string) ([]string, error) { return t.inner.Glob(pattern) }

func (t *timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.inner.SyncDir(dir)
	t.c.syncNs.Add(int64(time.Since(start)))
	t.c.syncs.Add(1)
	return err
}

type timingFile struct {
	vfs.File
	c *fsCounters
}

func (f *timingFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.c.readNs.Add(int64(time.Since(start)))
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.c.writeNs.Add(int64(time.Since(start)))
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.syncNs.Add(int64(time.Since(start)))
	f.c.syncs.Add(1)
	return err
}
