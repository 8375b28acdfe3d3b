package olfs

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/sim"
	"ros/internal/udf"
	"ros/internal/writepath"
)

// fileWriter is an open-for-write OLFS file: data streams into the current
// bucket (preliminary bucket writing, §4.3), spilling into further buckets
// when one fills (§4.5), with the version entry committed on Close (§4.6).
type fileWriter struct {
	fs   *FS
	path string

	w        *udf.Writer     // writer into the current bucket, nil between subfiles
	curID    image.ID        // bucket receiving the current subfile
	linkedIn image.ID        // bucket holding the next subfile's link, once written
	parts    []image.ID      // completed subfile locations
	partLens []int64         // completed subfile lengths
	partName string          // unique path used inside images (versioned for updates)
	version  int             // version number this writer will commit
	class    writepath.Class // admission class charged for this writer's bytes
	forepart []byte          // first bytes retained for MV (§4.8)
	size     int64
	closed   bool
}

// Name suffixes OLFS writes inside disc images. internalName appends
// versionMark and a version number to a file's path; a split file's part k
// (k >= 1) sits beside a link named by appending linkMark and k to that.
const (
	versionMark = ".__v"
	linkMark    = ".__rosprev"
)

// internalName is the unique file path used inside disc images: version 1
// keeps the global path verbatim (§4.4); updates append a version suffix so
// every retained version remains independently readable and recoverable from
// discs (§4.6: "OLFS can obtain any of its foregoing versions").
func internalName(path string, version int) string {
	if version <= 1 {
		return path
	}
	return path + versionMark + strconv.Itoa(version)
}

// linkName is the name of the link beside part k of a file stored as
// internal (an internalName).
func linkName(internal string, k int) string {
	return internal + linkMark + strconv.Itoa(k)
}

// checkName refuses a path that one of OLFS's own image names could alias:
// one with an element that holds linkMark, or that ends in versionMark and
// decimal digits. Without it, a file named "/report.__v2" would be stored
// under the name of /report's version 2.
func checkName(path string) error {
	if strings.Contains(path, linkMark) {
		return fmt.Errorf("%w: %s", ErrReservedName, path)
	}
	for rest := path; ; {
		i := strings.Index(rest, versionMark)
		if i < 0 {
			return nil
		}
		rest = rest[i+len(versionMark):]
		if digits, _, _ := strings.Cut(rest, "/"); isDigits(digits) {
			return fmt.Errorf("%w: %s", ErrReservedName, path)
		}
	}
}

// cutNumber splits s at its last mark into what precedes the mark and the
// number after it. ok reports whether everything after the mark is a
// decimal number.
func cutNumber(s, mark string) (before string, n int, ok bool) {
	i := strings.LastIndex(s, mark)
	if i < 0 || !isDigits(s[i+len(mark):]) {
		return s, 0, false
	}
	n, err := strconv.Atoi(s[i+len(mark):])
	return s[:i], n, err == nil
}

// isDigits reports whether s is one or more decimal digits.
func isDigits(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }

// Create opens path for writing. Fig 7's write prologue: stat (lookup index
// file), mknod (create index), stat (re-validate).
func (fs *FS) CreateFile(p *sim.Proc, path string) (*fileWriter, error) {
	return fs.CreateFileClass(p, path, writepath.Interactive)
}

// CreateFileClass opens path for writing under an explicit admission class.
// Archival writers (mover traffic, re-replication) draw from the archival
// token reservation instead of competing with interactive ingest.
func (fs *FS) CreateFileClass(p *sim.Proc, path string, cl writepath.Class) (*fileWriter, error) {
	if fs.stopped {
		return nil, ErrStopped
	}
	if err := checkName(path); err != nil {
		return nil, err
	}
	var exists bool
	_ = fs.op(p, "stat", func() error {
		exists = fs.MV.Exists(p, path)
		return nil
	})
	if !exists {
		if err := fs.op(p, "mknod", func() error {
			_, err := fs.MV.Mknod(p, path, false)
			return err
		}); err != nil {
			return nil, err
		}
	}
	ix, err := fs.stat(p, path)
	if err != nil {
		return nil, err
	}
	if ix.Dir {
		return nil, fmt.Errorf("olfs: %s is a directory", path)
	}
	version := 1
	if cur := ix.Current(); cur != nil {
		version = cur.Version + 1
	}
	return &fileWriter{
		fs:       fs,
		path:     path,
		version:  version,
		class:    cl,
		partName: internalName(path, version),
	}, nil
}

// Write appends data. Each call is one data request (§5.3 overheads); data
// lands in the open bucket, spilling across buckets when full.
func (fw *fileWriter) Write(p *sim.Proc, data []byte) (int, error) {
	if fw.closed {
		return 0, fmt.Errorf("olfs: write to closed file %s", fw.path)
	}
	fs := fw.fs
	if err := fs.wp.Admit(p, fw.class, int64(len(data))); err != nil {
		return 0, err
	}
	var landed int64
	if err := fs.dataOp(p, "write", func() error {
		p.Sleep(writeReqCost)
		if fs.cfg.DirectIO {
			fs.chargeMVOp(p) // per-write journal sync (§5.2 tracing setup)
		}
		var werr error
		landed, werr = fw.writeLocked(p, data)
		return werr
	}); err != nil {
		// Bytes that reached a bucket stay charged there (they occupy the
		// buffer and drain through the burn pipeline); return the rest.
		if rem := int64(len(data)) - landed; rem > 0 {
			fs.wp.Release(fw.class, rem)
		}
		return 0, err
	}
	if fs.cfg.Forepart && len(fw.forepart) < mv.MaxForepart {
		room := mv.MaxForepart - len(fw.forepart)
		if room > len(data) {
			room = len(data)
		}
		fw.forepart = append(fw.forepart, data[:room]...)
	}
	fw.size += int64(len(data))
	fs.m.bytesWritten.Add(int64(len(data)))
	return len(data), nil
}

// writeLocked pushes data into buckets under the bucket mutex. It returns
// the number of bytes that landed in buckets (and were attributed to them
// for admission accounting) even when it fails partway.
func (fw *fileWriter) writeLocked(p *sim.Proc, data []byte) (int64, error) {
	fs := fw.fs
	fs.curMu.Acquire(p)
	defer fs.curMu.Release()
	var landed int64
	for len(data) > 0 {
		if fw.w == nil {
			b, err := fs.ensureBucket(p)
			if err != nil {
				return landed, err
			}
			// A subfile after the first sits beside a link back to the one
			// before it (§4.5).
			if k := len(fw.parts); k > 0 && fw.linkedIn != b.ID {
				target := fmt.Sprintf("image:%s%s", fw.parts[k-1], fw.partName)
				if err := b.Vol.WriteLink(p, linkName(fw.partName, k), target); err != nil {
					return landed, err
				}
				fw.linkedIn = b.ID
				fs.m.splitFiles.Add(1)
			}
			w, err := b.Vol.CreateWriter(p, fw.partName)
			if err != nil {
				if err == udf.ErrNoSpace {
					// Bucket can't even hold the entry/dirs: seal and retry.
					if serr := fs.sealCurrent(p); serr != nil {
						return landed, serr
					}
					continue
				}
				return landed, err
			}
			fw.w = w
			fw.curID = b.ID
			fs.writers = append(fs.writers, fw)
		}
		n, err := fw.w.Write(p, data)
		fs.wp.ChargeBucket(fw.curID, fw.class, int64(n))
		landed += int64(n)
		data = data[n:]
		if err == nil {
			break
		}
		if err != udf.ErrNoSpace {
			return landed, err
		}
		// Current bucket full: finish this subfile, seal the bucket, and
		// continue in a new one (§4.5).
		if cerr := fw.finishSubfile(p); cerr != nil {
			return landed, cerr
		}
		if serr := fs.sealCurrent(p); serr != nil {
			return landed, serr
		}
	}
	return landed, nil
}

// finishSubfile closes the current UDF writer and records the part. Caller
// holds curMu.
func (fw *fileWriter) finishSubfile(p *sim.Proc) error {
	if fw.w == nil {
		return nil
	}
	if err := fw.w.Close(p); err != nil {
		return err
	}
	fw.parts = append(fw.parts, fw.curID)
	fw.partLens = append(fw.partLens, fw.w.Written())
	fw.w = nil
	fw.linkedIn = image.ID{}
	fw.fs.dropWriter(fw)
	return nil
}

// dropWriter forgets fw as a writer into the open bucket.
func (fs *FS) dropWriter(fw *fileWriter) {
	if i := slices.Index(fs.writers, fw); i >= 0 {
		fs.writers = slices.Delete(fs.writers, i, i+1)
	}
}

// Close commits the file: the final subfile is closed, the version entry is
// appended to the index (the Fig 7 "close" step), and the forepart stored
// if enabled.
func (fw *fileWriter) Close(p *sim.Proc) error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	fs := fw.fs
	return fs.op(p, "close", func() error {
		fs.curMu.Acquire(p)
		err := fw.finishSubfile(p)
		fs.curMu.Release()
		if err != nil {
			return err
		}
		if len(fw.parts) == 0 {
			// Empty file: record a zero-length version with no parts.
			fw.parts = nil
		}
		ve := mv.VersionEntry{
			Version:  fw.version,
			Size:     fw.size,
			Parts:    append([]image.ID(nil), fw.parts...),
			PartLens: append([]int64(nil), fw.partLens...),
		}
		if err := fs.MV.AppendVersion(p, fw.path, ve); err != nil {
			return err
		}
		if fs.cfg.Forepart && len(fw.forepart) > 0 {
			if err := fs.MV.SetForepart(p, fw.path, fw.forepart); err != nil {
				return err
			}
		}
		fs.m.filesWritten.Add(1)
		return nil
	})
}

// WriteFile is the whole-file convenience wrapper (interactive class).
func (fs *FS) WriteFile(p *sim.Proc, path string, data []byte) error {
	return fs.WriteFileClass(p, path, data, writepath.Interactive)
}

// WriteFileClass writes a whole file under an explicit admission class.
func (fs *FS) WriteFileClass(p *sim.Proc, path string, data []byte, cl writepath.Class) (err error) {
	op := fs.tracer.StartOp(p, "olfs.write", cl.String())
	op.Annotate("path", path)
	op.AnnotateInt("bytes", int64(len(data)))
	defer func() { op.Finish(p, err) }()
	fw, err := fs.CreateFileClass(p, path, cl)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := fw.Write(p, data); err != nil {
			// The file is abandoned: what landed is never committed, and no
			// seal closes its subfile either.
			fw.closed = true
			fs.dropWriter(fw)
			return err
		}
	}
	return fw.Close(p)
}
