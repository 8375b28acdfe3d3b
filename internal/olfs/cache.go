package olfs

import (
	"errors"
	"fmt"

	"ros/internal/bucket"
	"ros/internal/chunk"
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

// fillChunk is the transfer unit of a disc copy (a fill or a migration). A
// copy pins the tray and holds a read slot of its class (prefetch or scrub)
// for one chunk at a time, so an interactive reader of the same group waits
// out at most one chunk, and an eviction between chunks aborts the copy
// instead of queueing behind it.
const fillChunk = 1 << 20

// errCopyEvicted aborts a disc copy whose tray started unloading mid-copy.
var errCopyEvicted = errors.New("olfs: disc copy lost its tray")

// fillArray fills the read cache with every data image the catalog records
// on src's tray, in position order: src's own image as read (Buckets.Cache),
// the others ahead of any read of them (Buckets.CacheAhead), so under slot
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
				return openImage(fp, dst, id, "cached", fs.copyDisc(fp, src.group, src.epoch, addr, sched.Prefetch, dst))
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

// copyDisc lands the image at addr, on the array group gi held at epoch, in
// dst chunk by chunk (the disc lends, the slot adopts), holding one of the
// group's read slots at class per chunk. It gives up as soon as the group's
// epoch moves or its tray starts unloading (the same predicate that keeps
// readers off a tray in transit).
func (fs *FS) copyDisc(p *sim.Proc, gi int, epoch uint64, addr image.DiscAddr, class sched.Class, dst *bucket.Bucket) error {
	live := func() bool { return fs.groupEpoch[gi] == epoch && fs.holds(gi, addr.Tray) }
	view := optical.ImageView{Drive: fs.lib.Groups[gi].Drives[addr.Pos]}
	var pieces []chunk.Piece
	for off := int64(0); off < addr.Len; off += fillChunk {
		if !live() {
			// Gone already: do not queue for a read slot on its group.
			return errCopyEvicted
		}
		fs.sched.Pin(addr.Tray)
		fs.sched.AcquireReadSlot(p, class, gi)
		err := errCopyEvicted
		if live() {
			pieces, err = view.Lend(p, off, min(fillChunk, addr.Len-off), pieces[:0])
		}
		fs.sched.ReleaseReadSlot(gi)
		fs.sched.Unpin(addr.Tray)
		if err == nil && !live() {
			err = errCopyEvicted
		}
		if err != nil {
			return err
		}
		if err := dst.Adopt(p, off, pieces); err != nil {
			return err
		}
	}
	return nil
}

// openImage parses b's bytes, copied there with the outcome copyErr, as the
// UDF image id; how names the copy in errors.
func openImage(p *sim.Proc, b *bucket.Bucket, id image.ID, how string, copyErr error) (*udf.Volume, error) {
	if copyErr != nil {
		return nil, copyErr
	}
	vol, err := udf.Open(p, b.Backend())
	if err != nil {
		return nil, fmt.Errorf("olfs: %s image does not parse: %w", how, err)
	}
	if got := image.ID(vol.ImageID()); got != id {
		return nil, fmt.Errorf("olfs: %s image identity mismatch: got %s want %s", how, got, id)
	}
	return vol, nil
}
