// Package fuse models the FUSE user-space filesystem framework's overheads
// (§4.8 of the paper): every request crosses the kernel/user boundary, data
// moves in bounded chunks (4 KB by default; 128 KB with the big_writes mount
// option OLFS sets), and each chunk costs a mode switch.
//
// Costs are calibrated from Fig 6: ext4+FUSE loses 24.1% read / 51.8% write
// throughput against ext4 at 1 MB filebench I/O, which with 128 KB chunks
// gives ~33 us per read chunk and ~134 us per write chunk of switch+copy
// overhead. Metadata operations pay a full round trip (metaSwitch).
package fuse

import (
	"time"

	"ros/internal/sim"
	"ros/internal/vfs"
)

// Calibrated FUSE transport costs (Fig 6).
const (
	// maxRead is the read chunk size: the kernel readahead window.
	maxRead = 128 << 10
	// readSwitch / writeSwitch are the per-chunk mode-switch + copy costs.
	readSwitch  = 25 * time.Microsecond
	writeSwitch = 134 * time.Microsecond
	// metaSwitch is the full user-kernel round trip for metadata requests.
	metaSwitch = 600 * time.Microsecond
)

// Options configure the FUSE transport model.
type Options struct {
	// MaxWrite is the data chunk size (the big_writes mount option; §4.8:
	// "OLFS sets the mount option big_writes to flush 128 KB data each
	// time"); it must be positive.
	MaxWrite int
}

// DefaultOptions returns the calibrated big_writes configuration.
func DefaultOptions() Options {
	return Options{MaxWrite: 128 << 10}
}

// SmallWriteOptions returns the default-mount (4 KB flush) configuration for
// the §4.8 ablation.
func SmallWriteOptions() Options {
	return Options{MaxWrite: 4 << 10}
}

// FS wraps an inner filesystem with FUSE transport costs.
type FS struct {
	inner vfs.FileSystem
	opts  Options

	// Stats.
	MetaRequests  int64
	ReadRequests  int64
	WriteRequests int64
}

var _ vfs.FileSystem = (*FS)(nil)

// Wrap layers FUSE costs over inner.
func Wrap(inner vfs.FileSystem, opts Options) *FS {
	if opts.MaxWrite <= 0 {
		panic("fuse: Options.MaxWrite must be positive")
	}
	return &FS{inner: inner, opts: opts}
}

func (f *FS) meta(p *sim.Proc) {
	f.MetaRequests++
	p.Sleep(metaSwitch)
}

// Create implements vfs.FileSystem.
func (f *FS) Create(p *sim.Proc, path string) (vfs.File, error) {
	f.meta(p)
	inner, err := f.inner.Create(p, path)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

// Open implements vfs.FileSystem.
func (f *FS) Open(p *sim.Proc, path string) (vfs.File, error) {
	f.meta(p)
	inner, err := f.inner.Open(p, path)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

// Stat implements vfs.FileSystem.
func (f *FS) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	f.meta(p)
	return f.inner.Stat(p, path)
}

// Mkdir implements vfs.FileSystem.
func (f *FS) Mkdir(p *sim.Proc, path string) error {
	f.meta(p)
	return f.inner.Mkdir(p, path)
}

// ReadDir implements vfs.FileSystem.
func (f *FS) ReadDir(p *sim.Proc, path string) ([]vfs.DirEntry, error) {
	f.meta(p)
	return f.inner.ReadDir(p, path)
}

// Unlink implements vfs.FileSystem.
func (f *FS) Unlink(p *sim.Proc, path string) error {
	f.meta(p)
	return f.inner.Unlink(p, path)
}

// file chunks data requests and charges per-chunk switches.
type file struct {
	fs    *FS
	inner vfs.File
}

// Write implements vfs.File.
func (fl *file) Write(p *sim.Proc, data []byte) (int, error) {
	total := 0
	for n := 0; n < len(data); {
		c := fl.fs.opts.MaxWrite
		if c > len(data)-n {
			c = len(data) - n
		}
		fl.fs.WriteRequests++
		p.Sleep(writeSwitch)
		w, err := fl.inner.Write(p, data[n:n+c])
		total += w
		if err != nil {
			return total, err
		}
		n += c
	}
	return total, nil
}

// Read implements vfs.File.
func (fl *file) Read(p *sim.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		c := maxRead
		if c > len(buf)-total {
			c = len(buf) - total
		}
		fl.fs.ReadRequests++
		p.Sleep(readSwitch)
		n, err := fl.inner.Read(p, buf[total:total+c])
		total += n
		if err != nil {
			return total, err
		}
		if n < c {
			break // EOF
		}
	}
	return total, nil
}

// Close implements vfs.File.
func (fl *file) Close(p *sim.Proc) error {
	fl.fs.meta(p)
	return fl.inner.Close(p)
}
