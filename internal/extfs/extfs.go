// Package extfs models a mature local filesystem (the paper's ext4) on top
// of a cached volume: metadata operations are cheap (dentry/inode caches,
// §4.2), data moves at the volume's calibrated page-cache rates, and files
// are stored for real as extents on the backing store.
//
// It is the Fig 6 baseline ("The throughput of ext4 on the underlying RAID-5
// volume is 1.2 GB/s for read and 1.0 GB/s for write") and the bottom layer
// of the ext4+FUSE and samba configurations.
package extfs

import (
	"fmt"
	"path"
	"strings"
	"time"

	"ros/internal/sim"
	"ros/internal/vfs"
)

// MetaOpCost is the cached metadata operation cost (dentry-cache hit plus
// journal amortization).
const MetaOpCost = 50 * time.Microsecond

// Backend is the byte store (a pagecache.Volume over a RAID array).
type Backend interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	WriteAt(p *sim.Proc, buf []byte, off int64) error
	Size() int64
}

type extent struct {
	off int64
	len int64
}

type node struct {
	dir     bool
	size    int64
	mtime   time.Duration
	extents []extent
}

// FS is the ext4 model. It implements vfs.FileSystem.
type FS struct {
	env      *sim.Env
	store    Backend
	metaCost time.Duration
	next     int64 // bump allocator
	nodes    map[string]*node
}

var _ vfs.FileSystem = (*FS)(nil)

// New creates an empty filesystem on store.
func New(env *sim.Env, store Backend) *FS {
	fs := &FS{
		env:      env,
		store:    store,
		metaCost: MetaOpCost,
		nodes:    map[string]*node{"/": {dir: true}},
	}
	return fs
}

func (fs *FS) meta(p *sim.Proc) {
	p.Sleep(fs.metaCost)
}

func clean(name string) string { return path.Clean("/" + name) }

// mkParents creates missing ancestor directories.
func (fs *FS) mkParents(name string) error {
	parts := strings.Split(strings.TrimPrefix(name, "/"), "/")
	cur := ""
	for _, comp := range parts[:len(parts)-1] {
		cur += "/" + comp
		if n, ok := fs.nodes[cur]; ok {
			if !n.dir {
				return fmt.Errorf("%w: %s", vfs.ErrNotDir, cur)
			}
			continue
		}
		fs.nodes[cur] = &node{dir: true}
	}
	return nil
}

// file is an open handle.
type file struct {
	fs      *FS
	n       *node
	off     int64
	writing bool
	closed  bool
}

// Create implements vfs.FileSystem (truncate semantics).
func (fs *FS) Create(p *sim.Proc, name string) (vfs.File, error) {
	fs.meta(p)
	name = clean(name)
	if name == "/" {
		return nil, vfs.ErrIsDir
	}
	if err := fs.mkParents(name); err != nil {
		return nil, err
	}
	n, ok := fs.nodes[name]
	if ok {
		if n.dir {
			return nil, vfs.ErrIsDir
		}
		n.size = 0
		n.extents = nil
	} else {
		n = &node{}
		fs.nodes[name] = n
	}
	n.mtime = fs.env.Now()
	return &file{fs: fs, n: n, writing: true}, nil
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(p *sim.Proc, name string) (vfs.File, error) {
	fs.meta(p)
	n, ok := fs.nodes[clean(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotFound, name)
	}
	if n.dir {
		return nil, vfs.ErrIsDir
	}
	return &file{fs: fs, n: n}, nil
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(p *sim.Proc, name string) (vfs.FileInfo, error) {
	fs.meta(p)
	n, ok := fs.nodes[clean(name)]
	if !ok {
		return vfs.FileInfo{}, fmt.Errorf("%w: %s", vfs.ErrNotFound, name)
	}
	return vfs.FileInfo{Path: clean(name), IsDir: n.dir, Size: n.size, ModTime: n.mtime}, nil
}

// Write implements vfs.File: appends at the current offset.
func (f *file) Write(p *sim.Proc, data []byte) (int, error) {
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if !f.writing {
		return 0, vfs.ErrReadOnly
	}
	off := f.fs.next
	if off+int64(len(data)) > f.fs.store.Size() {
		return 0, fmt.Errorf("extfs: volume full")
	}
	if err := f.fs.store.WriteAt(p, data, off); err != nil {
		return 0, err
	}
	f.fs.next += int64(len(data))
	// Merge with the previous extent when contiguous.
	if k := len(f.n.extents); k > 0 && f.n.extents[k-1].off+f.n.extents[k-1].len == off {
		f.n.extents[k-1].len += int64(len(data))
	} else {
		f.n.extents = append(f.n.extents, extent{off: off, len: int64(len(data))})
	}
	f.n.size += int64(len(data))
	f.off += int64(len(data))
	return len(data), nil
}

// Read implements vfs.File.
func (f *file) Read(p *sim.Proc, buf []byte) (int, error) {
	if f.closed {
		return 0, vfs.ErrClosed
	}
	if f.off >= f.n.size {
		return 0, nil
	}
	want := int64(len(buf))
	if f.off+want > f.n.size {
		want = f.n.size - f.off
	}
	read := int64(0)
	pos := int64(0)
	for _, e := range f.n.extents {
		if f.off+read < pos+e.len && read < want {
			in := f.off + read - pos
			n := e.len - in
			if n > want-read {
				n = want - read
			}
			if err := f.fs.store.ReadAt(p, buf[read:read+n], e.off+in); err != nil {
				return int(read), err
			}
			read += n
		}
		pos += e.len
	}
	f.off += read
	return int(read), nil
}

// Close implements vfs.File.
func (f *file) Close(p *sim.Proc) error {
	if f.closed {
		return vfs.ErrClosed
	}
	f.closed = true
	f.fs.meta(p)
	return nil
}
