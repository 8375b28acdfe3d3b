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
// half: when an interactive read has to go to a disc array, every data image
// of that array is brought back into a slot, so the next read of any file
// on the array is a buffer hit (Table 1 row 2, ~2 ms) instead of a tray swap
// (row 5, ~155 s). Whole arrays, not files: a burned image is immutable, the
// hit path (Buckets.Resident -> Vol.OpenReader) already exists, a set's
// images are sealed back to back from one write stream, and once the array
// is in its drives each other data disc sits in an otherwise idle drive — a
// Zipf population of 448 files in 64 images on 32 2+1 trays pays 32
// first-touch misses, not 64 or 448. Each image fills on its own drive; the
// disc lends the image's chunks and the slot adopts them, so a fill is
// charged as a disc read and a buffer write but copies no bytes.

// fillChunk is the transfer unit. A fill pins the tray and holds a
// prefetch-class read slot for one chunk at a time, so an interactive reader
// of the same group waits out at most one chunk, and an eviction between
// chunks aborts the fill instead of queueing behind it.
const fillChunk = 1 << 20

// errFillEvicted aborts a fill whose tray started unloading mid-copy.
var errFillEvicted = errors.New("olfs: cache fill lost its tray")

// fillArray fills the read cache with every data image the catalog records
// on src's tray, in position order: src's own image as startFill would, the
// others ahead of any read of them (Buckets.CacheAhead), so under slot
// pressure an unread sibling goes before the image that was read.
func (fs *FS) fillArray(src *partSource) {
	onTray := fs.Cat.ImagesOnTray(src.tray)
	ids := make([]image.ID, 0, len(onTray))
	for pos := range fs.lib.Groups[src.group].Drives {
		if id, ok := onTray[pos]; ok {
			ids = append(ids, id)
		}
	}
	fs.fill(src, ids)
}

// startFill fills the read cache with src's image alone.
func (fs *FS) startFill(src *partSource) { fs.fill(src, []image.ID{src.id}) }

// fill launches one background process that copies, one Fork child each, the
// images of ids that src's array holds and that are neither resident nor
// being filled already. Parity images are never filled: no read resolves to
// them, and they are regenerated rather than read back.
func (fs *FS) fill(src *partSource, ids []image.ID) {
	var todo []image.ID
	var addrs []image.DiscAddr
	for _, id := range ids {
		if fs.fills[id] {
			continue
		}
		if _, ok := fs.Buckets.Resident(id); ok {
			continue
		}
		addr, ok := fs.Cat.Locate(id)
		if !ok || addr.Parity || addr.Tray != src.tray {
			continue
		}
		fs.fills[id] = true
		todo = append(todo, id)
		addrs = append(addrs, addr)
	}
	if len(todo) == 0 {
		return
	}
	fs.env.Go("olfs-fill", func(p *sim.Proc) {
		_ = p.Fork("fill-"+src.tray.String()+"-d", len(todo), func(fp *sim.Proc, k int) error {
			id, addr := todo[k], addrs[k]
			defer delete(fs.fills, id)
			cache := fs.Buckets.CacheAhead
			if id == src.id {
				cache = fs.Buckets.Cache
			}
			start := fp.Now()
			if _, err := cache(fp, func(dst *bucket.Bucket) (*udf.Volume, error) {
				return fs.copyImage(fp, src, id, addr, dst)
			}); err != nil {
				fs.m.fillAborts.Add(1)
				return nil
			}
			fs.m.cacheFills.Add(1)
			fs.m.fillLatency.ObserveSince(start, fp.Now())
			return nil
		})
	})
}

// copyImage lands image id, at addr on src's array, in dst chunk by chunk
// (the disc lends, the slot adopts), and parses the copy.
// It gives up as soon as the group's epoch moves or its tray starts unloading
// (the same predicate that keeps readers off a tray in transit).
func (fs *FS) copyImage(p *sim.Proc, src *partSource, id image.ID, addr image.DiscAddr, dst *bucket.Bucket) (*udf.Volume, error) {
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
	if image.ID(vol.ImageID()) != id {
		return nil, fmt.Errorf("olfs: cached image identity mismatch: got %s want %s",
			image.ID(vol.ImageID()), id)
	}
	return vol, nil
}
