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
// Buffer ownership: a WriteAt callee must copy buf before it returns and may
// not retain it, so the caller may reuse buf once WriteAt returns; a ReadAt
// callee fills all of buf or returns an error. The layers above keep and
// reuse their scratch buffers on the strength of this.
//
// Bytes that should not be copied at all move by reference instead, through
// a Lend method where a tier has one (Disk, pagecache.Volume, optical.Drive):
// it charges what ReadAt would and hands out read-only pieces of the tier's
// chunk store, which the receiver may keep — an optical.Disc burning them, a
// buffer slot adopting them (pagecache.Volume.Adopt), or a RAID member
// adopting the columns of a flushed full stripe (Adopt, charged as WriteAt).
// Both sides copy a shared chunk before they write to it (chunk.Store), so
// neither ever sees the other's later writes.
type Device interface {
	// ReadAt fills buf from the device starting at off.
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	// WriteAt stores buf to the device starting at off.
	WriteAt(p *sim.Proc, buf []byte, off int64) error
	// Adopt stores lent pieces back to back from off, keeping whole aligned
	// chunks by reference (chunk.Store.Adopt).
	Adopt(p *sim.Proc, off int64, pieces [][]byte) error
	// Size returns the device capacity in bytes.
	Size() int64
}

// Profile describes a device's performance envelope.
type Profile struct {
	Name          string
	SeqThroughput float64       // bytes/second for sequential transfer
	SeekTime      time.Duration // charged when the access is not sequential
	PerOpOverhead time.Duration // controller/command overhead per request
	QueueDepth    int           // concurrent requests serviced (min 1)
}

// HDDProfile models the paper's 4 TB 150 MB/s hard disks.
func HDDProfile() Profile {
	return Profile{
		Name:          "hdd",
		SeqThroughput: 150e6,
		SeekTime:      8 * time.Millisecond,
		PerOpOverhead: 100 * time.Microsecond,
		QueueDepth:    1,
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
		QueueDepth:    8,
	}
}

// Disk is an in-memory sparse block device with a performance model. It also
// supports fault injection: whole-device failure and per-sector latent
// errors, which the RAID layer and the disc scrubber exercise.
type Disk struct {
	env     *sim.Env
	profile Profile
	size    int64
	store   chunk.Store
	svc     *sim.Resource // serializes access per QueueDepth
	lastEnd int64         // detects sequential access
	failed  bool
	badSecs map[int64]bool // offsets (sector-aligned) that return ErrBadSector

	// Stats counters.
	BytesRead    int64
	BytesWritten int64
	Ops          int64
}

// New creates a disk of the given size with the given profile.
func New(env *sim.Env, size int64, profile Profile) *Disk {
	qd := profile.QueueDepth
	if qd < 1 {
		qd = 1
	}
	return &Disk{
		env:     env,
		profile: profile,
		size:    size,
		svc:     sim.NewResource(env, qd),
		badSecs: make(map[int64]bool),
		lastEnd: -1,
	}
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
func (d *Disk) CorruptSector(off int64) { d.badSecs[off&^4095] = true }

// HealSector clears a latent sector error.
func (d *Disk) HealSector(off int64) { delete(d.badSecs, off&^4095) }

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

// access charges one access of n bytes at off and, if it succeeds, runs move,
// the store side of it: the range, device and sector checks, a service slot
// for the transfer time, and the head position and counters.
func (d *Disk) access(p *sim.Proc, off, n int64, write bool, move func()) error {
	if off < 0 || off+n > d.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, d.size)
	}
	d.svc.Acquire(p)
	defer d.svc.Release()
	if d.failed {
		return ErrFailed
	}
	if !write {
		for s := off &^ 4095; s < off+n; s += 4096 {
			if d.badSecs[s] {
				return fmt.Errorf("%w: offset %d", ErrBadSector, s)
			}
		}
	}
	p.Sleep(d.transferTime(off, int(n)))
	d.lastEnd = off + n
	if write {
		d.BytesWritten += n
	} else {
		d.BytesRead += n
	}
	d.Ops++
	move()
	return nil
}

// ReadAt implements Device.
func (d *Disk) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	return d.access(p, off, int64(len(buf)), false, func() { d.store.ReadAt(buf, off) })
}

// Lend is ReadAt without the copy: it charges the same read of [off, off+n)
// and appends read-only pieces of the stored bytes to dst (chunk.Store.Lend),
// so a disc can burn straight from the disk.
func (d *Disk) Lend(p *sim.Proc, off, n int64, dst [][]byte) ([][]byte, error) {
	err := d.access(p, off, n, false, func() { dst = d.store.Lend(dst, off, n) })
	return dst, err
}

// WriteAt implements Device.
func (d *Disk) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	return d.access(p, off, int64(len(buf)), true, func() { d.store.WriteAt(buf, off) })
}

// Adopt implements Device.
func (d *Disk) Adopt(p *sim.Proc, off int64, pieces [][]byte) error {
	n := int64(0)
	for _, pc := range pieces {
		n += int64(len(pc))
	}
	return d.access(p, off, n, true, func() { d.store.Adopt(off, pieces) })
}

// WriteFrom implements pagecache.Backend for a cache straight over one disk:
// the disk adopts everything it is handed, lent before the first yield.
func (d *Disk) WriteFrom(p *sim.Proc, s *chunk.Store, off, n int64) error {
	return d.Adopt(p, off, s.Lend(nil, off, n))
}

// AllocatedBytes returns the host memory actually backing this sparse disk.
func (d *Disk) AllocatedBytes() int64 { return d.store.Bytes() }
