package olfs

import (
	"errors"
	"fmt"

	"ros/internal/bucket"
	"ros/internal/image"
	"ros/internal/optical"
	"ros/internal/sched"
	"ros/internal/sim"
	"ros/internal/udf"
)

// Read-cache fill (RC, §4.1). The buffer slots already serve as read cache
// for images written here until the LRU reclaims them; this is the other
// half: an image an interactive read had to fetch from a disc is brought back
// into a slot, so the next read of any file in it is a buffer hit (Table 1
// row 2, ~2 ms) instead of a tray swap (row 5, ~155 s). Whole images, not
// files: a burned image is immutable, the hit path (Buckets.Resident ->
// Vol.OpenReader) already exists, and files cluster in images — a Zipf
// population of 448 files in 64 images pays 64 first-touch misses, not 448.
// The disc lends the image's chunks and the slot adopts them, so a fill is
// charged as a disc read and a buffer write but copies no bytes.

// fillChunk is the transfer unit. The fill pins the tray and holds a
// prefetch-class read slot for one chunk at a time, so an interactive reader
// of the same group waits out at most one chunk, and an eviction between
// chunks aborts the fill instead of queueing behind it.
const fillChunk = 1 << 20

// errFillEvicted aborts a fill whose tray started unloading mid-copy.
var errFillEvicted = errors.New("olfs: cache fill lost its tray")

// startFill launches one background fill of src's image unless it is
// already resident or being filled. Parity images are never filled: no read
// resolves to them, and they are regenerated rather than read back.
func (fs *FS) startFill(src *partSource) {
	if fs.fills[src.id] {
		return
	}
	if _, ok := fs.Buckets.Resident(src.id); ok {
		return
	}
	addr, ok := fs.Cat.Locate(src.id)
	if !ok || addr.Parity || addr.Tray != src.tray {
		return
	}
	fs.fills[src.id] = true
	fs.env.Go("olfs-fill", func(p *sim.Proc) {
		defer delete(fs.fills, src.id)
		start := p.Now()
		if _, err := fs.Buckets.Cache(p, func(dst *bucket.Bucket) (*udf.Volume, error) {
			return fs.copyImage(p, src, addr, dst)
		}); err != nil {
			fs.m.fillAborts.Add(1)
			return
		}
		fs.m.cacheFills.Add(1)
		fs.m.fillLatency.ObserveSince(start, p.Now())
	})
}

// copyImage lands the image at addr, which the disc in src's group holds, in
// dst chunk by chunk (the disc lends, the slot adopts), and parses the copy.
// It gives up as soon as the group's epoch moves or its tray starts unloading
// (the same predicate that keeps readers off a tray in transit).
func (fs *FS) copyImage(p *sim.Proc, src *partSource, addr image.DiscAddr, dst *bucket.Bucket) (*udf.Volume, error) {
	gi := src.group
	live := func() bool { return fs.groupEpoch[gi] == src.epoch && fs.holds(gi, addr.Tray) }
	view := optical.ImageView{Drive: fs.lib.Groups[gi].Drives[addr.Pos]}
	var pieces [][]byte
	for off := int64(0); off < addr.Len; off += fillChunk {
		if !live() {
			// Gone already: do not queue for a read slot on its group.
			return nil, errFillEvicted
		}
		fs.sched.Pin(addr.Tray)
		fs.sched.AcquireReadSlot(p, sched.Prefetch, gi)
		err := errFillEvicted
		if live() {
			pieces, err = view.Lend(p, off, min(fillChunk, addr.Len-off), pieces[:0])
		}
		fs.sched.ReleaseReadSlot(gi)
		fs.sched.Unpin(addr.Tray)
		if err == nil && !live() {
			err = errFillEvicted
		}
		if err != nil {
			return nil, err
		}
		if err := dst.Adopt(p, off, pieces); err != nil {
			return nil, err
		}
	}
	vol, err := udf.Open(p, dst.Backend())
	if err != nil {
		return nil, err
	}
	if image.ID(vol.ImageID()) != src.id {
		return nil, fmt.Errorf("olfs: cached image identity mismatch: got %s want %s",
			image.ID(vol.ImageID()), src.id)
	}
	return vol, nil
}
