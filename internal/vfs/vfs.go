// Package vfs defines the filesystem interface shared by every layer of the
// ROS storage stack: the ext4 model, the FUSE and Samba wrappers, and OLFS
// itself. It mirrors the POSIX file API shape the paper's Figure 7 traces
// (stat / mknod / write / read / close), with an explicit simulation process
// on every call so each layer can charge its virtual-time costs.
package vfs

import (
	"errors"
	"time"

	"ros/internal/sim"
)

// Errors shared across FileSystem implementations.
var (
	ErrNotFound = errors.New("vfs: no such file or directory")
	ErrExist    = errors.New("vfs: file exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrClosed   = errors.New("vfs: file already closed")
	ErrReadOnly = errors.New("vfs: read-only")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Path    string
	IsDir   bool
	Size    int64
	Version int           // OLFS version number; 0 for versionless layers
	ModTime time.Duration // virtual time of last modification
}

// DirEntry is one directory listing element.
type DirEntry struct {
	Name  string
	IsDir bool
	Size  int64
}

// File is an open file handle. Reads and writes are sequential (the handle
// maintains its offset), matching the filebench singlestream access pattern.
type File interface {
	// Write appends data at the current offset.
	Write(p *sim.Proc, data []byte) (int, error)
	// Read fills buf from the current offset; returns 0 at EOF.
	Read(p *sim.Proc, buf []byte) (int, error)
	// Close releases the handle; for writable files this commits metadata.
	Close(p *sim.Proc) error
}

// FileSystem is the POSIX-ish surface every stack layer implements.
type FileSystem interface {
	Create(p *sim.Proc, path string) (File, error)
	Open(p *sim.Proc, path string) (File, error)
	Stat(p *sim.Proc, path string) (FileInfo, error)
}

// WriteFile creates path and writes data through it in chunkSize pieces
// (default 1 MB, the filebench I/O size), then closes it.
func WriteFile(p *sim.Proc, fs FileSystem, path string, data []byte, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = 1 << 20
	}
	f, err := fs.Create(p, path)
	if err != nil {
		return err
	}
	for n := 0; n < len(data); {
		c := chunkSize
		if c > len(data)-n {
			c = len(data) - n
		}
		if _, err := f.Write(p, data[n:n+c]); err != nil {
			f.Close(p)
			return err
		}
		n += c
	}
	return f.Close(p)
}

// ReadFile opens path and reads it fully in chunkSize pieces.
func ReadFile(p *sim.Proc, fs FileSystem, path string, chunkSize int) ([]byte, error) {
	if chunkSize <= 0 {
		chunkSize = 1 << 20
	}
	f, err := fs.Open(p, path)
	if err != nil {
		return nil, err
	}
	var out []byte
	buf := make([]byte, chunkSize)
	for {
		n, err := f.Read(p, buf)
		if n > 0 {
			out = append(out, buf[:n]...)
		}
		if err != nil {
			f.Close(p)
			return out, err
		}
		if n == 0 {
			break
		}
	}
	return out, f.Close(p)
}
