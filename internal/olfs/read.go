package olfs

import (
	"errors"
	"fmt"
	"io"

	"ros/internal/image"
	"ros/internal/mv"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/udf"
)

// errStaleSource marks a resolution that raced a tray eviction: the group's
// epoch moved while the source was being mounted/opened. Callers retry —
// fetchTray brings the tray back.
var errStaleSource = errors.New("olfs: read source invalidated by tray eviction")

// maxSourceRetries bounds how often one part re-resolves after losing a race
// with eviction before the error is surfaced.
const maxSourceRetries = 4

// partSource is a resolved, readable subfile location, stamped with where it
// was resolved so a later read can detect that the tray has since been
// evicted (group < 0 means the image was buffer-resident).
type partSource struct {
	rd    *udf.Reader
	len   int64
	id    image.ID
	vol   *udf.Volume
	group int
	epoch uint64
	tray  rack.TrayID
}

// fileReader is an open-for-read OLFS file handle. class is the QoS class
// mechanical work (tray fetches, read slots) is admitted at; the zero value
// is sched.Interactive, so foreground handles need no explicit setup. fill
// marks a client handle: when it is Interactive, every image it reads off a
// disc is copied into the read cache. Probes (ReadLocated, ReadFirstByte)
// leave it unset and so measure the tier ladder without moving it.
type fileReader struct {
	fs      *FS
	path    string
	entry   mv.VersionEntry
	off     int64
	class   sched.Class
	fill    bool
	sources []*partSource // resolved lazily per part
}

// OpenFile resolves path's current version (Fig 7 read prologue: stat).
func (fs *FS) OpenFile(p *sim.Proc, path string) (*fileReader, error) {
	if fs.stopped {
		return nil, ErrStopped
	}
	var ix *mv.Index
	if err := fs.op(p, "stat", func() error {
		var err error
		ix, err = fs.MV.Stat(p, path)
		return err
	}); err != nil {
		return nil, err
	}
	if ix.Dir {
		return nil, fmt.Errorf("olfs: %s is a directory", path)
	}
	cur := ix.Current()
	if cur == nil {
		return &fileReader{fs: fs, path: path}, nil // empty file
	}
	return &fileReader{
		fs:      fs,
		path:    path,
		entry:   *cur,
		fill:    true,
		sources: make([]*partSource, len(cur.Parts)),
	}, nil
}

// OpenFileVersion resolves a historical version (data provenance, §4.6).
func (fs *FS) OpenFileVersion(p *sim.Proc, path string, version int) (*fileReader, error) {
	var ix *mv.Index
	if err := fs.op(p, "stat", func() error {
		var err error
		ix, err = fs.MV.Stat(p, path)
		return err
	}); err != nil {
		return nil, err
	}
	ve := ix.VersionAt(version)
	if ve == nil {
		return nil, fmt.Errorf("olfs: %s has no retained version %d", path, version)
	}
	return &fileReader{
		fs:      fs,
		path:    path,
		entry:   *ve,
		fill:    true,
		sources: make([]*partSource, len(ve.Parts)),
	}, nil
}

// Size returns the file size of the opened version.
func (fr *fileReader) Size() int64 { return fr.entry.Size }

// Read fills buf from the current offset (one data request).
func (fr *fileReader) Read(p *sim.Proc, buf []byte) (int, error) {
	fs := fr.fs
	var n int
	err := fs.dataOp(p, "read", func() error {
		p.Sleep(readReqCost)
		if fs.cfg.DirectIO {
			fs.chargeMVOp(p)
		}
		var err error
		n, err = fr.readAt(p, buf, fr.off)
		return err
	})
	fr.off += int64(n)
	fs.m.bytesRead.Add(int64(n))
	return n, err
}

// ReadAt fills buf at an absolute offset without moving the handle.
func (fr *fileReader) ReadAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	fs := fr.fs
	var n int
	err := fs.dataOp(p, "read", func() error {
		p.Sleep(readReqCost)
		if fs.cfg.DirectIO {
			fs.chargeMVOp(p)
		}
		var err error
		n, err = fr.readAt(p, buf, off)
		return err
	})
	fs.m.bytesRead.Add(int64(n))
	return n, err
}

// Close releases the handle (Fig 7's trailing close op).
func (fr *fileReader) Close(p *sim.Proc) error {
	return fr.fs.op(p, "close", func() error {
		fr.fs.chargeMVOp(p)
		fr.fs.m.filesRead.Add(1)
		return nil
	})
}

// partSeg is one part's overlap with a read request: fill buf[lo:hi] from
// byte inOff of part.
type partSeg struct {
	part   int
	lo, hi int
	inOff  int64
}

// segments maps a logical [off, off+len(buf)) read onto the version's parts.
func (fr *fileReader) segments(buf []byte, off int64) []partSeg {
	var segs []partSeg
	read := 0
	partStart := int64(0)
	for i := range fr.entry.Parts {
		plen := fr.partLen(i)
		if off+int64(read) < partStart+plen && read < len(buf) {
			inOff := off + int64(read) - partStart
			want := plen - inOff
			if want > int64(len(buf)-read) {
				want = int64(len(buf) - read)
			}
			segs = append(segs, partSeg{part: i, lo: read, hi: read + int(want), inOff: inOff})
			read += int(want)
		}
		partStart += plen
	}
	return segs
}

// readAt maps a logical file offset across the version's parts. Requests
// spanning several parts resolve and read them concurrently (split files land
// on distinct discs, so the group aggregates their bandwidth); a request
// inside one part is read inline on the calling proc.
func (fr *fileReader) readAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	if off >= fr.entry.Size || len(buf) == 0 {
		return 0, nil
	}
	segs := fr.segments(buf, off)
	switch len(segs) {
	case 0:
		return 0, nil
	case 1:
		n, err := fr.readSeg(p, buf, segs[0])
		return segs[0].lo + n, err
	}
	return fr.readSegsParallel(p, buf, segs)
}

// readSegsParallel fans one child proc out per segment, bounded by the drive
// group width. The returned count is the contiguous prefix filled from
// buf[segs[0].lo:], with the first in-order error. A short read on any
// segment but the last under-fills the buffer, which is an error, not an EOF
// (the index said the bytes exist).
func (fr *fileReader) readSegsParallel(p *sim.Proc, buf []byte, segs []partSeg) (int, error) {
	fs := fr.fs
	env := fs.env
	tctx := p.TraceContext()
	// The per-group read slots meter drive access; this semaphore only keeps
	// the proc fan-out itself bounded for requests spanning many trays.
	sem := sim.NewResource(env, rack.DrivesPerGroup)
	type segRes struct {
		n   int
		err error
	}
	comps := make([]*sim.Completion[segRes], len(segs))
	for k := range segs {
		s := segs[k]
		c := sim.NewCompletion[segRes](env)
		comps[k] = c
		env.Go(fmt.Sprintf("olfs-pread-p%d", s.part), func(cp *sim.Proc) {
			cp.SetTraceContext(tctx)
			defer cp.SetTraceContext(nil)
			sem.Acquire(cp)
			defer sem.Release()
			sp := obs.StartChild(cp, "olfs.read.part")
			sp.AnnotateInt("part", int64(s.part))
			n, err := fr.readSeg(cp, buf, s)
			sp.Fail(cp, err)
			c.Resolve(segRes{n: n, err: err}, nil)
		})
	}
	ns := make([]int, len(segs))
	errs := make([]error, len(segs))
	for k, c := range comps {
		r, _ := c.Wait(p)
		ns[k], errs[k] = r.n, r.err
	}
	read := 0
	for k, s := range segs {
		read = s.lo + ns[k]
		if errs[k] != nil {
			return read, errs[k]
		}
		if s.lo+ns[k] < s.hi {
			if k < len(segs)-1 {
				return read, io.ErrUnexpectedEOF
			}
			break
		}
	}
	return read, nil
}

// readSeg resolves one segment's source and reads it. Disc-backed reads pin
// the tray (so the slot wait cannot race an eviction of the very tray the
// validated source points at) and pass through the scheduler's per-group
// read slots. A source can die during the read. A buffer read whose slot was
// reclaimed may have copied another image's bytes; a disc read whose tray
// began unloading (an eviction granted before the pin) fails with a no-disc
// error if the disc left mid-transfer, and otherwise read the right disc.
// Either failure re-resolves the segment and reads it again.
func (fr *fileReader) readSeg(p *sim.Proc, buf []byte, s partSeg) (n int, err error) {
	for try := 0; ; try++ {
		var src *partSource
		src, err = fr.source(p, s.part)
		if err != nil {
			return 0, err
		}
		n, err = fr.readSource(p, src, buf[s.lo:s.hi], s.inOff)
		discOK := src.group >= 0 && err == nil
		if discOK || fr.fs.sourceValid(src) || try == maxSourceRetries {
			return n, err
		}
	}
}

// readSource reads one resolved source at off.
func (fr *fileReader) readSource(p *sim.Proc, src *partSource, buf []byte, off int64) (int, error) {
	if src.group < 0 {
		return src.rd.ReadAt(p, buf, off)
	}
	fs := fr.fs
	fs.sched.Pin(src.tray)
	defer fs.sched.Unpin(src.tray)
	fs.sched.AcquireReadSlot(p, fr.class, src.group)
	defer fs.sched.ReleaseReadSlot(src.group)
	return src.rd.ReadAt(p, buf, off)
}

// partLen returns part i's byte length.
func (fr *fileReader) partLen(i int) int64 {
	if i < len(fr.entry.PartLens) {
		return fr.entry.PartLens[i]
	}
	return fr.entry.Size
}

// sourceValid reports whether a cached source still points at the data it was
// resolved against: disc sources die with their group epoch (tray evicted),
// buffer sources die when the bucket slot is recycled or re-imaged.
func (fs *FS) sourceValid(s *partSource) bool {
	if s.group >= 0 {
		return fs.groupEpoch[s.group] == s.epoch
	}
	b, ok := fs.Buckets.Resident(s.id)
	return ok && !b.Raw && b.Vol == s.vol
}

// source resolves part i to a readable UDF file, walking the Table 1 tier
// ladder: buffer-resident bucket/image -> disc already in a drive -> disc
// array fetched from the roller. Cached sources are re-validated on every
// call; a source invalidated by tray eviction is transparently re-resolved
// (the bugfix for stale read handles).
func (fr *fileReader) source(p *sim.Proc, i int) (*partSource, error) {
	fs := fr.fs
	if s := fr.sources[i]; s != nil {
		if fs.sourceValid(s) {
			return s, nil
		}
		fr.sources[i] = nil
		fs.m.staleSources.Add(1)
	}
	name := internalName(fr.path, fr.entry.Version)
	var err error
	for try := 0; try < maxSourceRetries; try++ {
		var src *partSource
		src, err = fs.resolveSource(p, fr.entry.Parts[i], name, fr.partLen(i), fr.class)
		if err != nil {
			if errors.Is(err, errStaleSource) {
				fs.m.staleSources.Add(1)
				continue
			}
			return nil, err
		}
		if !fs.sourceValid(src) {
			fs.m.staleSources.Add(1)
			continue
		}
		fr.sources[i] = src
		if src.group >= 0 && fr.fill && fr.class == sched.Interactive {
			fs.startFill(src)
		}
		return src, nil
	}
	if err == nil {
		err = errStaleSource
	}
	return nil, fmt.Errorf("olfs: part %d kept losing the eviction race: %w", i, err)
}

// resolveSource mounts image id and opens name in it, returning the source
// stamped with its location. The tray is pinned for the whole disc path so
// the eviction window closes between the group lookup and the UDF open.
// Mechanical fetches are admitted at class.
func (fs *FS) resolveSource(p *sim.Proc, id image.ID, name string, plen int64, class sched.Class) (*partSource, error) {
	// Tier 1/2: buffer-resident bucket or image (Table 1 rows 1-2).
	if b, ok := fs.Buckets.Resident(id); ok && !b.Raw {
		fs.Buckets.Touch(b)
		fs.m.cacheHits.Add(1)
		rd, err := b.Vol.OpenReader(p, name)
		if err != nil {
			return nil, err
		}
		return &partSource{rd: rd, len: plen, id: id, vol: b.Vol, group: -1}, nil
	}
	fs.m.cacheMisses.Add(1)
	// Tier 3/4: on disc.
	addr, ok := fs.Cat.Locate(id)
	if !ok {
		return nil, fmt.Errorf("%w: image %s", ErrPartMissing, id)
	}
	fs.sched.Pin(addr.Tray)
	defer fs.sched.Unpin(addr.Tray)
	gi := fs.groupHolding(addr.Tray)
	if gi < 0 {
		var err error
		gi, err = fs.fetchTray(p, addr.Tray, class)
		if err != nil {
			return nil, err
		}
	}
	epoch := fs.groupEpoch[gi]
	drv := fs.lib.Groups[gi].Drives[addr.Pos]
	vol, err := fs.mountDrive(p, gi, drv)
	if err == nil {
		var rd *udf.Reader
		rd, err = vol.OpenReader(p, name)
		if err == nil {
			return &partSource{
				rd: rd, len: plen, id: id, vol: vol,
				group: gi, epoch: epoch, tray: addr.Tray,
			}, nil
		}
	}
	if fs.groupEpoch[gi] != epoch {
		// The failure raced an in-flight eviction that was already past the
		// demand check when we pinned; retryable.
		return nil, fmt.Errorf("%w: %v", errStaleSource, err)
	}
	return nil, err
}

// groupHolding returns the index of the group whose loaded tray is tray, or
// -1 (Table 1 row 3: "disc in optical drive", 0.223 s).
func (fs *FS) groupHolding(tray rack.TrayID) int {
	for gi := range fs.lib.Groups {
		if fs.holds(gi, tray) {
			return gi
		}
	}
	return -1
}

// holds reports whether group gi has tray loaded and readable. A group whose
// unload has begun is not a source even though rack still names the tray as
// its Source: the arm may already have collected the discs.
func (fs *FS) holds(gi int, tray rack.TrayID) bool {
	g := fs.lib.Groups[gi]
	return !fs.unloading[gi] && g.Source != nil && *g.Source == tray
}

// mountDrive mounts the disc in drv into the local VFS (§5.4: ~220 ms,
// charged once per inserted disc). The mount is cached only if the group's
// epoch is unchanged across the mount delay, so an eviction racing the sleep
// cannot resurrect a stale fs.mounted entry after unloadGroup cleared it.
func (fs *FS) mountDrive(p *sim.Proc, gi int, drv *optical.Drive) (*udf.Volume, error) {
	if v, ok := fs.mounted[drv]; ok {
		return v, nil
	}
	epoch := fs.groupEpoch[gi]
	p.Sleep(vfsMountTime)
	vol, err := udf.Open(p, optical.ImageView{Drive: drv})
	if err != nil {
		return nil, err
	}
	if fs.groupEpoch[gi] == epoch {
		fs.mounted[drv] = vol
	}
	return vol, nil
}

// unloadGroup puts group gi's array back in its tray. It first forgets the
// group's mounts and advances its validity epoch, invalidating every
// fileReader source resolved against the outgoing tray, and marks the group
// in transit until the unload returns, so no reader resolves a new source on
// it meanwhile; such a reader fetches the tray instead.
func (fs *FS) unloadGroup(p *sim.Proc, gi int) error {
	fs.groupEpoch[gi]++
	for _, d := range fs.lib.Groups[gi].Drives {
		delete(fs.mounted, d)
	}
	fs.unloading[gi] = true
	defer func() { fs.unloading[gi] = false }()
	return fs.lib.UnloadArray(p, gi, nil)
}

// ReadFile reads the whole current version of path (stat + reads + close).
func (fs *FS) ReadFile(p *sim.Proc, path string) ([]byte, error) {
	return fs.ReadFileClass(p, path, sched.Interactive)
}

// ReadFileClass is ReadFile with the QoS class of the mechanical work made
// explicit: tray fetches and drive read slots are admitted at class, so
// background consumers (cluster re-replication, scrub-adjacent maintenance)
// can drain whole files without competing with interactive readers.
func (fs *FS) ReadFileClass(p *sim.Proc, path string, class sched.Class) (data []byte, err error) {
	op := fs.tracer.StartOp(p, "olfs.read", class.String())
	op.Annotate("path", path)
	defer func() { op.Finish(p, err) }()
	fr, err := fs.OpenFile(p, path)
	if err != nil {
		return nil, err
	}
	fr.class = class
	// The size is known from the index, so the result is read in place, one
	// request per 1 MB window, and reads stop at EOF without an extra
	// zero-length probe (keeps the Fig 7 trace at stat, read*, close).
	out := make([]byte, fr.Size())
	got := 0
	for got < len(out) {
		n, err := fr.Read(p, out[got:min(got+1<<20, len(out))])
		got += n
		if err != nil {
			fr.Close(p)
			return out[:got], err
		}
		if n == 0 {
			break
		}
	}
	return out[:got], fr.Close(p)
}

// ReadFirstByte returns the latency-to-first-byte for path, serving from the
// MV forepart when the data needs a mechanical fetch (§4.8). It reads one
// byte; the caller can then ReadFile normally.
func (fs *FS) ReadFirstByte(p *sim.Proc, path string) (byte, error) {
	var ix *mv.Index
	if err := fs.op(p, "stat", func() error {
		var err error
		ix, err = fs.MV.Stat(p, path)
		return err
	}); err != nil {
		return 0, err
	}
	cur := ix.Current()
	if cur == nil || cur.Size == 0 {
		return 0, fmt.Errorf("olfs: %s is empty", path)
	}
	if fs.cfg.Forepart && len(ix.Forepart) > 0 {
		// Forepart hit: answer from MV immediately (~2 ms path).
		fs.m.forepartHits.Add(1)
		return ix.Forepart[0], nil
	}
	fr := &fileReader{fs: fs, path: path, entry: *cur, sources: make([]*partSource, len(cur.Parts))}
	buf := make([]byte, 1)
	if _, err := fr.readAt(p, buf, 0); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// ReadLocated measures the pure data-access latency of a resolved file — the
// Table 1 experiment, which isolates the location-dependent component from
// the POSIX/MV prologue.
func (fs *FS) ReadLocated(p *sim.Proc, path string) ([]byte, error) {
	ix, ok := fs.MV.Lookup(path)
	if !ok {
		return nil, mv.ErrNotFound
	}
	cur := ix.Current()
	if cur == nil {
		return nil, nil
	}
	fr := &fileReader{fs: fs, path: path, entry: *cur, sources: make([]*partSource, len(cur.Parts))}
	buf := make([]byte, cur.Size)
	n, err := fr.readAt(p, buf, 0)
	return buf[:n], err
}
