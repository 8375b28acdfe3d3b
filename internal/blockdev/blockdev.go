// Package blockdev provides simulated block devices (HDD, SSD) that store
// real bytes while charging virtual time for each access through a simple
// seek + transfer performance model.
//
// Devices are sparse: a 4 TB disk allocates host memory only for chunks that
// have been written, so a PB-scale ROS rack fits in a test process.
package blockdev

import (
	"errors"
	"fmt"
	"time"

	"ros/internal/chunk"
	"ros/internal/sim"
)

// Common device errors.
var (
	ErrOutOfRange = errors.New("blockdev: access beyond device size")
	ErrFailed     = errors.New("blockdev: device failed")
	ErrBadSector  = errors.New("blockdev: unreadable sector")
)

// Device is the interface ROS tiers are built on. Read/Write charge virtual
// time on the calling process and move real bytes.
//
// A device is a clock: one FIFO server whose service times are decided as
// requests arrive. Book serves an access without blocking and returns when it
// ends; a Disk's ReadAt, WriteAt, Adopt and Lend are that plus one sleep.
// Bytes move when an access is booked, which is exact because no later
// access is served first. Device failure and bad sectors are checked then too,
// and a failed access holds the device for no time. Counters count an access
// when it is booked by Book, whose caller sleeps until its end, and when it
// ends otherwise.
//
// Buffer ownership: a WriteAt or Book callee must copy buf before it returns
// and may not retain it, so the caller may reuse buf once the call returns; a
// ReadAt callee fills all of buf or returns an error. The layers above keep
// and reuse their scratch buffers on the strength of this.
//
// Bytes that should not be copied at all move by reference instead, through
// a Lend method where a tier has one (Disk, pagecache.Volume, optical.Drive):
// it charges what ReadAt would and hands out read-only pieces of the tier's
// chunk store, which the receiver may keep — an optical.Disc burning them, a
// buffer slot adopting them (pagecache.Volume.Adopt), or a RAID member
// adopting the columns of a flushed full stripe (an Access with Pieces,
// charged as a write).
// Both sides copy a shared chunk before they write to it (chunk.Store), so
// neither ever sees the other's later writes.
type Device interface {
	// ReadAt fills buf from the device starting at off.
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	// WriteAt stores buf to the device starting at off.
	WriteAt(p *sim.Proc, buf []byte, off int64) error
	// Book serves access a, arriving now, and returns when it ends or, if it
	// fails, when it would have started.
	Book(a Access) (time.Duration, error)
	// Size returns the device capacity in bytes.
	Size() int64
}

// Access is one request as Book takes it: a read fills Buf; a write stores
// Buf, or, if Pieces is set, stores the lent pieces back to back, keeping
// whole aligned chunks, recipes among them, by reference (chunk.Store.Adopt).
type Access struct {
	Write  bool
	Off    int64
	Buf    []byte
	Pieces []chunk.Piece
}

// Profile describes a device's performance envelope.
type Profile struct {
	Name          string
	SeqThroughput float64       // bytes/second for sequential transfer
	SeekTime      time.Duration // charged when the access is not sequential
	PerOpOverhead time.Duration // controller/command overhead per request
}

// HDDProfile models the paper's 4 TB 150 MB/s hard disks.
func HDDProfile() Profile {
	return Profile{
		Name:          "hdd",
		SeqThroughput: 150e6,
		SeekTime:      8 * time.Millisecond,
		PerOpOverhead: 100 * time.Microsecond,
	}
}

// SSDProfile models the paper's 240 GB SATA SSDs used for the metadata
// volume.
func SSDProfile() Profile {
	return Profile{
		Name:          "ssd",
		SeqThroughput: 500e6,
		SeekTime:      50 * time.Microsecond,
		PerOpOverhead: 20 * time.Microsecond,
	}
}

// Disk is an in-memory sparse block device with a performance model. It also
// supports fault injection: whole-device failure and per-sector latent
// errors, which the RAID layer and the disc scrubber exercise.
type Disk struct {
	env       *sim.Env
	profile   Profile
	size      int64
	store     chunk.Store
	busyUntil time.Duration // when the last access booked ends
	lastEnd   int64         // where it ends on the device: detects sequential access
	failed    bool
	badSecs   map[int64]bool // offsets (sector-aligned) that return ErrBadSector; nil until the first

	// Stats counters.
	BytesRead    int64
	BytesWritten int64
	Ops          int64
}

// New creates a disk of the given size with the given profile.
func New(env *sim.Env, size int64, profile Profile) *Disk {
	return &Disk{env: env, profile: profile, size: size, lastEnd: -1}
}

// Size returns the device capacity in bytes.
func (d *Disk) Size() int64 { return d.size }

// Profile returns the device's performance profile.
func (d *Disk) Profile() Profile { return d.profile }

// Fail marks the device failed; all subsequent I/O returns ErrFailed.
func (d *Disk) Fail() { d.failed = true }

// Failed reports whether the device has been failed.
func (d *Disk) Failed() bool { return d.failed }

// Repair clears a whole-device failure (contents are preserved; a real
// replacement would be a fresh New disk).
func (d *Disk) Repair() { d.failed = false }

// CorruptSector marks the 4 KB-aligned sector containing off unreadable.
func (d *Disk) CorruptSector(off int64) {
	if d.badSecs == nil {
		d.badSecs = make(map[int64]bool)
	}
	d.badSecs[off&^4095] = true
}

// HealSector clears a latent sector error.
func (d *Disk) HealSector(off int64) { delete(d.badSecs, off&^4095) }

// FlipByte silently inverts the stored byte at off: unlike CorruptSector,
// reads succeed and return the flipped byte. It takes no virtual time.
func (d *Disk) FlipByte(off int64) { d.store.FlipByte(off) }

// nearWindow is the distance (bytes) within which a non-contiguous access is
// charged a short settle time rather than a full seek: drive readahead and
// elevator scheduling absorb short hops, which matters for stripe-interleaved
// RAID access.
const nearWindow = 2 << 20

// transferTime computes the virtual-time cost of moving n bytes starting at
// off, accounting for sequentiality.
func (d *Disk) transferTime(off int64, n int) time.Duration {
	t := d.profile.PerOpOverhead
	if off != d.lastEnd {
		dist := off - d.lastEnd
		if dist < 0 {
			dist = -dist
		}
		if d.lastEnd >= 0 && dist <= nearWindow {
			t += d.profile.SeekTime / 16 // settle, not a full stroke
		} else {
			t += d.profile.SeekTime
		}
	}
	if d.profile.SeqThroughput > 0 {
		t += sim.ByteTime(float64(n), d.profile.SeqThroughput)
	}
	return t
}

// book times an access of n bytes at off arriving now. It starts when the
// access booked before it ends. If the device has failed, or a sector it
// reads is bad, as it arrives, it fails at that start and holds the device
// for no time. book returns when the access ends, or when it fails.
func (d *Disk) book(off, n int64, write bool) (time.Duration, error) {
	now := d.env.Now()
	if off < 0 || off+n > d.size {
		return now, fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, d.size)
	}
	start := max(now, d.busyUntil)
	if d.failed {
		return start, ErrFailed
	}
	for s := off &^ 4095; !write && len(d.badSecs) > 0 && s < off+n; s += 4096 {
		if d.badSecs[s] {
			return start, fmt.Errorf("%w: offset %d", ErrBadSector, s)
		}
	}
	d.busyUntil = start + d.transferTime(off, int(n))
	d.lastEnd = off + n
	return d.busyUntil, nil
}

// serve books a and moves its bytes; it returns a's length too.
func (d *Disk) serve(a Access) (time.Duration, int64, error) {
	n := int64(len(a.Buf))
	for _, pc := range a.Pieces {
		n += int64(pc.Len())
	}
	t, err := d.book(a.Off, n, a.Write)
	switch {
	case err != nil:
		return t, n, err
	case !a.Write:
		d.store.ReadAt(a.Buf, a.Off)
	case a.Pieces != nil:
		d.store.Adopt(a.Off, a.Pieces)
	default:
		d.store.WriteAt(a.Buf, a.Off)
	}
	return t, n, nil
}

// wait sleeps p until t, the end of an access booked now or the start of a
// failed one, and counts a successful access there.
func (d *Disk) wait(p *sim.Proc, t time.Duration, n int64, write bool, err error) error {
	if err == nil || t > p.Now() {
		p.Sleep(t - p.Now())
	}
	if err == nil {
		d.count(n, write)
	}
	return err
}

// count adds a completed access of n bytes to the counters.
func (d *Disk) count(n int64, write bool) {
	if write {
		d.BytesWritten += n
	} else {
		d.BytesRead += n
	}
	d.Ops++
}

// Book implements Device.
func (d *Disk) Book(a Access) (time.Duration, error) {
	t, n, err := d.serve(a)
	if err == nil {
		d.count(n, a.Write)
	}
	return t, err
}

// do serves a on p: Book and the sleep until a ends.
func (d *Disk) do(p *sim.Proc, a Access) error {
	t, n, err := d.serve(a)
	return d.wait(p, t, n, a.Write, err)
}

// ReadAt implements Device.
func (d *Disk) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	return d.do(p, Access{Off: off, Buf: buf})
}

// Lend is ReadAt without the copy: it charges the same read of [off, off+n)
// and appends read-only pieces of the stored bytes to dst (chunk.Store.Lend),
// so a disc can burn straight from the disk.
func (d *Disk) Lend(p *sim.Proc, off, n int64, dst []chunk.Piece) ([]chunk.Piece, error) {
	t, err := d.book(off, n, false)
	if err == nil {
		dst = d.store.Lend(dst, off, n)
	}
	return dst, d.wait(p, t, n, false, err)
}

// WriteAt implements Device.
func (d *Disk) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	return d.do(p, Access{Write: true, Off: off, Buf: buf})
}

// Adopt stores lent pieces back to back from off, keeping whole aligned
// chunks by reference (chunk.Store.Adopt).
func (d *Disk) Adopt(p *sim.Proc, off int64, pieces []chunk.Piece) error {
	return d.do(p, Access{Write: true, Off: off, Pieces: pieces})
}

// WriteFrom implements pagecache.Backend for a cache straight over one disk:
// the disk adopts everything it is handed, lent before the first yield.
func (d *Disk) WriteFrom(p *sim.Proc, s *chunk.Store, off, n int64) error {
	return d.Adopt(p, off, s.Lend(nil, off, n))
}

// AllocatedBytes returns the host memory actually backing this sparse disk.
func (d *Disk) AllocatedBytes() int64 { return d.store.Bytes() }
