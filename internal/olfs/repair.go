package olfs

import (
	"fmt"
	"sort"

	"ros/internal/bucket"
	"ros/internal/faultinject"
	"ros/internal/image"
	"ros/internal/obs"
	"ros/internal/optical"
	"ros/internal/rack"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/udf"
)

// ScrubReport summarizes a tray scrub (§4.7: "disc sector-error checking can
// be scheduled at idle times and can periodically scan all the burned disc
// arrays").
type ScrubReport struct {
	Tray      rack.TrayID
	Checked   int64   // bytes verified per disc
	BadStrips []int64 // strip offsets failing parity/readback
}

// trayLayout classifies a tray's cataloged images by role. Parity is burned
// immediately after the data images, so the first parity position is also
// the physical data width of the set — even when data entries have since
// been migrated away (WORM discs keep their bits, so the physical layout is
// fixed at burn time). Catalogs rebuilt by namespace recovery carry no
// parity entries; those fall back to the contiguous-layout arithmetic.
func (fs *FS) trayLayout(onTray map[int]image.ID) (dataN int, parityPos []int) {
	for pos, id := range onTray {
		if a, ok := fs.Cat.Locate(id); ok && a.Parity {
			parityPos = append(parityPos, pos)
		}
	}
	sort.Ints(parityPos)
	if len(parityPos) > 0 {
		return parityPos[0], parityPos
	}
	return len(onTray) - fs.cfg.ParityDiscs, nil
}

// parityColumns returns the views of a tray's parity images, P first: the
// cataloged parity positions, else the ParityDiscs positions after the data.
func (fs *FS) parityColumns(backends []image.Backend, dataN int, parityPos []int) []image.Backend {
	if len(parityPos) == 0 {
		return backends[dataN : dataN+fs.cfg.ParityDiscs]
	}
	parity := make([]image.Backend, len(parityPos))
	for i, pos := range parityPos {
		parity[i] = backends[pos]
	}
	return parity
}

// readGate adapts the scheduler's per-group read slots to image.Gate, so
// parallel scrub/recover column reads are admitted chunk-by-chunk and cannot
// starve interactive readers of the same drive group.
type readGate struct {
	s     *sched.Scheduler
	class sched.Class
	gi    int
}

func (g readGate) Acquire(p *sim.Proc) { g.s.AcquireReadSlot(p, g.class, g.gi) }
func (g readGate) Release()            { g.s.ReleaseReadSlot(g.gi) }

// trayBackends fetches the tray and returns the holding group's index, the
// per-position image views and payload length. Callers should Pin the tray
// first so the group assignment stays valid for the whole maintenance op.
func (fs *FS) trayBackends(p *sim.Proc, tray rack.TrayID) (int, []image.Backend, map[int]image.ID, int64, error) {
	gi, err := fs.fetchTray(p, tray, sched.Scrub)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	g := fs.lib.Groups[gi]
	onTray := fs.Cat.ImagesOnTray(tray)
	length := int64(0)
	backends := make([]image.Backend, len(g.Drives))
	for pos := range g.Drives {
		backends[pos] = optical.ImageView{Drive: g.Drives[pos]}
		if id, ok := onTray[pos]; ok {
			if addr, ok := fs.Cat.Locate(id); ok && addr.Len > length {
				length = addr.Len
			}
		}
	}
	if length == 0 {
		length = udf.BlockSize
	}
	return gi, backends, onTray, length, nil
}

// ScrubTray verifies cross-disc parity for a burned tray, reading every disc
// through the drives. Sector errors surface as bad strips.
func (fs *FS) ScrubTray(p *sim.Proc, tray rack.TrayID) (rep ScrubReport, err error) {
	op := fs.tracer.StartOp(p, "olfs.scrub", "scrub")
	if op != nil {
		op.Annotate("tray", tray.String())
	}
	defer func() { op.Finish(p, err) }()
	rep = ScrubReport{Tray: tray}
	if fs.Cat.DAState(tray) != image.DAUsed {
		return rep, fmt.Errorf("olfs: tray %v is not a burned array", tray)
	}
	fs.sched.Pin(tray)
	defer fs.sched.Unpin(tray)
	gi, backends, onTray, length, err := fs.trayBackends(p, tray)
	if err != nil {
		return rep, err
	}
	k := fs.cfg.DataDiscs
	dataN, parityPos := fs.trayLayout(onTray)
	if dataN < 1 || dataN > k {
		return rep, fmt.Errorf("olfs: tray %v holds %d images, inconsistent with %d+%d layout",
			tray, len(onTray), k, fs.cfg.ParityDiscs)
	}
	// Verify over the physical set layout: the data strip views span the full
	// burn-time data width regardless of which entries the catalog still
	// tracks (parity was computed over those very bits).
	data := backends[:dataN]
	parity := fs.parityColumns(backends, dataN, parityPos)
	vsp := obs.StartChild(p, "optical.verify")
	vsp.AnnotateInt("bytes", length)
	if ferr := faultinject.Check(p, faultinject.PointOpticalVerify, tray.String()); ferr != nil {
		vsp.Fail(p, ferr)
		return rep, ferr
	}
	bad, err := image.VerifyParityParallel(p, data, parity, length,
		readGate{s: fs.sched, class: sched.Scrub, gi: gi})
	if err != nil {
		vsp.Fail(p, err)
		return rep, err
	}
	vsp.AnnotateInt("bad_strips", int64(len(bad)))
	vsp.End(p)
	rep.Checked = length
	rep.BadStrips = bad
	return rep, nil
}

// RecoverImage reconstructs a data image whose disc is lost or unreadable,
// using the surviving discs of its tray and the parity image(s). The
// recovered image lands in a fresh buffer bucket in the Filled state so it
// can be re-burned to a free disc array (§4.7: "The recovered data can be
// written to new buckets and finally burned into free disc arrays"). The old
// disc location is forgotten.
func (fs *FS) RecoverImage(p *sim.Proc, id image.ID) (nb *bucket.Bucket, err error) {
	op := fs.tracer.StartOp(p, "olfs.recover", "scrub")
	if op != nil {
		op.Annotate("image", id.String())
	}
	defer func() { op.Finish(p, err) }()
	addr, ok := fs.Cat.Locate(id)
	if !ok {
		return nil, fmt.Errorf("%w: image %s not on disc", ErrPartMissing, id)
	}
	fs.sched.Pin(addr.Tray)
	defer fs.sched.Unpin(addr.Tray)
	gi, backends, onTray, length, err := fs.trayBackends(p, addr.Tray)
	if err != nil {
		return nil, err
	}
	dataN, parityPos := fs.trayLayout(onTray)
	if addr.Parity || addr.Pos >= dataN {
		return nil, fmt.Errorf("olfs: %s is a parity image; regenerate instead", id)
	}
	data := make([]image.Backend, dataN)
	for i := 0; i < dataN; i++ {
		if i != addr.Pos {
			data[i] = backends[i]
		}
	}
	parity := fs.parityColumns(backends, dataN, parityPos)
	nb, err = fs.Buckets.OpenRaw(p, length)
	if err != nil {
		return nil, err
	}
	out := make([]image.Backend, dataN)
	out[addr.Pos] = nb.Backend()
	// The lost disc is usually readable outside its failed sectors: hand its
	// direct view to the sector-granular fallback so stripes with non-aligned
	// LSEs across discs still recover.
	shadow := make([]image.Backend, dataN)
	shadow[addr.Pos] = backends[addr.Pos]
	err = image.RecoverParallel(p, data, shadow, parity, out, length,
		readGate{s: fs.sched, class: sched.Scrub, gi: gi})
	return fs.adoptCopy(p, nb, id, "recovered", err)
}

// adoptCopy finishes copying image id into nb, by recovery or migration (how
// names which, for errors). If the copy failed (err), or nb's bytes do not
// parse as the UDF image id, nb is discarded. Otherwise nb serves the image's
// reads from now on and the old disc location is forgotten.
func (fs *FS) adoptCopy(p *sim.Proc, nb *bucket.Bucket, id image.ID, how string, err error) (*bucket.Bucket, error) {
	vol, err := openImage(p, nb, id, how, err)
	if err != nil {
		_ = fs.Buckets.Discard(nb)
		return nil, err
	}
	fs.Buckets.Adopt(nb, vol)
	fs.Cat.Forget(id)
	return nb, nil
}

// migrateImage copies a still-readable data image off a degraded tray into a
// fresh buffer bucket as a fill does (no parity math), at scrub class,
// verifying that the copy parses as a UDF image with the same identity. The
// old disc location is forgotten so the retired tray drops out of the
// catalog.
func (fs *FS) migrateImage(p *sim.Proc, id image.ID) (nb *bucket.Bucket, err error) {
	op := fs.tracer.StartOp(p, "olfs.migrate", "scrub")
	if op != nil {
		op.Annotate("image", id.String())
	}
	defer func() { op.Finish(p, err) }()
	addr, ok := fs.Cat.Locate(id)
	if !ok {
		return nil, fmt.Errorf("%w: image %s not on disc", ErrPartMissing, id)
	}
	fs.sched.Pin(addr.Tray)
	defer fs.sched.Unpin(addr.Tray)
	gi, err := fs.fetchTray(p, addr.Tray, sched.Scrub)
	if err != nil {
		return nil, err
	}
	nb, err = fs.Buckets.OpenRaw(p, addr.Len)
	if err != nil {
		return nil, err
	}
	return fs.adoptCopy(p, nb, id, "migrated", fs.copyDisc(p, gi, fs.groupEpoch[gi], addr, sched.Scrub, nb))
}
