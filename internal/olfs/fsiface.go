package olfs

import (
	"errors"
	"time"

	"ros/internal/mv"
	"ros/internal/sim"
	"ros/internal/vfs"
)

// FS implements vfs.FileSystem (the PI module), so it can sit under the
// FUSE and Samba wrappers in the Fig 6 stack.
var _ vfs.FileSystem = (*FS)(nil)

// mapErr converts mv errors into the shared vfs sentinel space.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, mv.ErrNotFound):
		return vfs.ErrNotFound
	case errors.Is(err, mv.ErrExist):
		return vfs.ErrExist
	case errors.Is(err, mv.ErrIsDir):
		return vfs.ErrIsDir
	case errors.Is(err, mv.ErrNotDir):
		return vfs.ErrNotDir
	default:
		return err
	}
}

// writeHandle adapts fileWriter to vfs.File.
type writeHandle struct{ fw *fileWriter }

func (h writeHandle) Write(p *sim.Proc, data []byte) (int, error) { return h.fw.Write(p, data) }
func (h writeHandle) Read(p *sim.Proc, buf []byte) (int, error) {
	return 0, errors.New("olfs: handle open for write")
}
func (h writeHandle) Close(p *sim.Proc) error { return h.fw.Close(p) }

// readHandle adapts fileReader to vfs.File.
type readHandle struct{ fr *fileReader }

func (h readHandle) Write(p *sim.Proc, data []byte) (int, error) {
	return 0, vfs.ErrReadOnly
}
func (h readHandle) Read(p *sim.Proc, buf []byte) (int, error) { return h.fr.Read(p, buf) }
func (h readHandle) Close(p *sim.Proc) error                   { return h.fr.Close(p) }

// Create implements vfs.FileSystem.
func (fs *FS) Create(p *sim.Proc, path string) (vfs.File, error) {
	fw, err := fs.CreateFile(p, path)
	if err != nil {
		return nil, mapErr(err)
	}
	return writeHandle{fw}, nil
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(p *sim.Proc, path string) (vfs.File, error) {
	fr, err := fs.OpenFile(p, path)
	if err != nil {
		return nil, mapErr(err)
	}
	return readHandle{fr}, nil
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	ix, err := fs.stat(p, path)
	if err != nil {
		return vfs.FileInfo{}, mapErr(err)
	}
	fi := vfs.FileInfo{Path: ix.Path, IsDir: ix.Dir}
	if cur := ix.Current(); cur != nil {
		fi.Size = cur.Size
		fi.Version = cur.Version
		fi.ModTime = time.Duration(cur.MTimeNS)
	}
	return fi, nil
}

// Mkdir creates the directory path in the MV namespace.
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	if err := checkName(path); err != nil {
		return err
	}
	return mapErr(fs.op(p, "mkdir", func() error {
		_, err := fs.MV.Mknod(p, path, true)
		return err
	}))
}

// ReadDir lists the directory at path, sorted by name.
func (fs *FS) ReadDir(p *sim.Proc, path string) ([]vfs.DirEntry, error) {
	var names []string
	err := fs.op(p, "readdir", func() error {
		var err error
		names, err = fs.MV.ReadDir(p, path)
		return err
	})
	if err != nil {
		return nil, mapErr(err)
	}
	out := make([]vfs.DirEntry, 0, len(names))
	base := path
	if base == "/" {
		base = ""
	}
	for _, n := range names {
		de := vfs.DirEntry{Name: n}
		if ix, ok := fs.MV.Lookup(base + "/" + n); ok {
			de.IsDir = ix.Dir
			if cur := ix.Current(); cur != nil {
				de.Size = cur.Size
			}
		}
		out = append(out, de)
	}
	return out, nil
}

// Unlink removes path from the namespace. Only the namespace entry goes;
// burned data remains on WORM discs (§4.6).
func (fs *FS) Unlink(p *sim.Proc, path string) error {
	return mapErr(fs.op(p, "unlink", func() error {
		return fs.MV.Remove(p, path)
	}))
}
