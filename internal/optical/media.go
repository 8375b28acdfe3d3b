// Package optical models Blu-ray discs and drives: write-once media (BD-R
// and BDXL; §2.1 rules out rewritable BD-RE) with pseudo-overwrite tracks,
// drive state machines (sleep / idle / loaded / reading / burning), the
// paper's measured burn-speed curves (Fig 8-10) and read speeds (Table 2),
// plus SATA/HBA contention across a 12-drive group.
//
// Discs separate *logical* capacity (what the timing model charges: a 25 GB
// or 100 GB burn takes its real minutes of virtual time) from *stored*
// payload (sparse, only written bytes occupy host memory), so PB-scale
// experiments run in-process while still moving real file data.
//
// A burn advances in 500 quanta. At each quantum boundary it re-samples the
// speed curve and the group throttle, and looks at its interrupt flag and
// the optical.burn fault point. Where none of that can change the quanta
// still to come (their payload is lent, the media draws no speed dips, no
// samples are taken, the group cap cannot bind, no matching fault rule is
// armed and no interrupt is pending), one sleep covers all of them, and
// InterruptBurn or arming a matching rule cuts it at the boundary a
// quantum-by-quantum burn would stop at. Virtual time is the same either
// way; the host pays one engine event instead of hundreds.
package optical

import (
	"errors"
	"fmt"

	"ros/internal/chunk"
)

// MediaType selects the disc generation.
type MediaType int

// Supported media.
const (
	// Media25 is a 25 GB single-layer BD-R (reference speed 6X, max ~12X).
	Media25 MediaType = iota
	// Media100 is a 100 GB BDXL (reference speed 4X, 6X on the dedicated
	// Pioneer BDR-PR1AME the paper uses).
	Media100
)

// BluRay1X is the Blu-ray 1X reference data rate (§2.1: 4.49 MB/s).
const BluRay1X = 4.49e6

// Capacity returns the logical capacity in bytes.
func (m MediaType) Capacity() int64 {
	switch m {
	case Media25:
		return 25e9
	case Media100:
		return 100e9
	}
	return 0
}

func (m MediaType) String() string {
	switch m {
	case Media25:
		return "BD-R 25GB"
	case Media100:
		return "BDXL 100GB"
	}
	return fmt.Sprintf("media(%d)", int(m))
}

// Media errors.
var (
	ErrWORMViolation = errors.New("optical: write to already-burned region")
	ErrDiscFull      = errors.New("optical: disc capacity exceeded")
	ErrDiscFailed    = errors.New("optical: disc unreadable")
	ErrBadSector     = errors.New("optical: unreadable disc sector")
)

// SectorSize is the Blu-ray sector (and UDF block) size.
const SectorSize = 2048

// Track is one burned session on a disc. Write-all-once discs have a single
// track; the pseudo-overwrite mechanism (§2.1) appends further tracks, each
// paying a metadata-zone overhead.
type Track struct {
	Start int64 // byte offset of the track's data area
	Len   int64 // bytes of data burned in this track
}

// TrackMetaZone is the capacity lost to the per-track formatted metadata
// area when the pseudo-overwrite / append-burn mode is used (§2.1, §4.8).
const TrackMetaZone = 64 << 20

// Disc is a write-once optical disc. Payload storage is sparse; the logical
// capacity drives all timing. A burn adopts the chunks its source lends
// (chunk.Store), so a burned image shares its bytes with the buffer slot it
// came from instead of copying them.
type Disc struct {
	ID      string
	Type    MediaType
	store   chunk.Store
	tracks  []Track
	written int64 // high-water mark including metadata zones
	failed  bool
	badSecs map[int64]bool // nil until the first CorruptSector
}

// NewDisc creates a blank disc.
func NewDisc(id string, m MediaType) *Disc {
	return &Disc{ID: id, Type: m}
}

// Capacity returns the disc's logical capacity in bytes.
func (d *Disc) Capacity() int64 { return d.Type.Capacity() }

// Written returns the high-water mark of burned bytes (incl. track metadata
// zones).
func (d *Disc) Written() int64 { return d.written }

// Remaining returns the burnable bytes left.
func (d *Disc) Remaining() int64 { return d.Capacity() - d.written }

// Blank reports whether nothing has been burned.
func (d *Disc) Blank() bool { return d.written == 0 }

// Tracks returns the burned sessions.
func (d *Disc) Tracks() []Track { return d.tracks }

// Fail marks the whole disc unreadable (scratched/lost).
func (d *Disc) Fail() { d.failed = true }

// Failed reports whether the disc is unreadable.
func (d *Disc) Failed() bool { return d.failed }

// CorruptSector injects a latent sector error at the sector containing off.
// The paper (§4.7) cites a 1e-16 archival-disc sector error rate; scrubbing
// plus inter-disc RAID recovers these.
func (d *Disc) CorruptSector(off int64) {
	if d.badSecs == nil {
		d.badSecs = make(map[int64]bool)
	}
	d.badSecs[off&^(SectorSize-1)] = true
}

// FlipByte silently corrupts the stored byte at off: unlike CorruptSector
// the sector still reads without error, so only parity verification can
// detect the damage (bit rot below the drive's error correction). A chunk
// the disc shares with a buffer slot is copied first, so the fault stays on
// the disc.
func (d *Disc) FlipByte(off int64) { d.store.FlipByte(off) }

// beginTrack reserves space for a new track of dataLen bytes, applying the
// metadata-zone overhead for every track after the first. It returns the
// track's data start offset.
func (d *Disc) beginTrack(dataLen int64) (int64, error) {
	overhead := int64(0)
	if len(d.tracks) > 0 {
		overhead = TrackMetaZone
	}
	if d.written+overhead+dataLen > d.Capacity() {
		return 0, fmt.Errorf("%w: %d written, %d requested", ErrDiscFull, d.written, dataLen)
	}
	start := d.written + overhead
	d.tracks = append(d.tracks, Track{Start: start, Len: 0})
	d.written = start
	return start, nil
}

// burnBytes appends n bytes of lent pieces at the current watermark and
// keeps them (chunk.Store.Adopt). Only the Drive calls this; WORM is enforced
// by construction (no overwrite API exists).
func (d *Disc) burnBytes(pieces [][]byte, n int64) error {
	if d.written+n > d.Capacity() {
		return ErrDiscFull
	}
	// Burning over blank media leaves no trace of a byte flipped on it.
	d.store.Truncate(d.written)
	d.store.Adopt(d.written, pieces)
	d.written += n
	if t := len(d.tracks); t > 0 {
		d.tracks[t-1].Len += n
	}
	return nil
}

// extendWatermark advances the watermark without storing payload — used when
// the image being burned is logically larger than its meaningful bytes (the
// tail is zeros and stays sparse).
func (d *Disc) extendWatermark(n int64) error {
	if d.written+n > d.Capacity() {
		return ErrDiscFull
	}
	d.written += n
	if t := len(d.tracks); t > 0 {
		d.tracks[t-1].Len += n
	}
	return nil
}

// readable checks that [off, off+n) can be read: the disc is intact, the
// range lies on it and no sector in it is bad.
func (d *Disc) readable(off, n int64) error {
	if d.failed {
		return ErrDiscFailed
	}
	if off < 0 || off+n > d.Capacity() {
		return fmt.Errorf("optical: read out of range (off=%d len=%d)", off, n)
	}
	for s := off &^ (SectorSize - 1); len(d.badSecs) > 0 && s < off+n; s += SectorSize {
		if d.badSecs[s] {
			return fmt.Errorf("%w: disc %s offset %d", ErrBadSector, d.ID, s)
		}
	}
	return nil
}

// readAt copies stored bytes into buf; unwritten regions read as zero.
func (d *Disc) readAt(buf []byte, off int64) error {
	if err := d.readable(off, int64(len(buf))); err != nil {
		return err
	}
	d.store.ReadAt(buf, off)
	return nil
}

// lend appends read-only pieces of [off, off+n) to dst, under readAt's checks.
func (d *Disc) lend(dst [][]byte, off, n int64) ([][]byte, error) {
	if err := d.readable(off, n); err != nil {
		return dst, err
	}
	return d.store.Lend(dst, off, n), nil
}
