// Package optical models Blu-ray discs and drives: WORM media with
// pseudo-overwrite tracks, drive state machines (sleep / idle / loaded /
// reading / burning), the paper's measured burn-speed curves (Fig 8-10) and
// read speeds (Table 2), plus SATA/HBA contention across a 12-drive group.
//
// Discs separate *logical* capacity (what the timing model charges: a 25 GB
// or 100 GB burn takes its real minutes of virtual time) from *stored*
// payload (sparse, only written bytes occupy host memory), so PB-scale
// experiments run in-process while still moving real file data.
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
	// Media25RW is a 25 GB BD-RE: rewritable "with relatively low burning
	// speed (2X), limited erase cycle (at most 1000) and high cost" (§2.1).
	// ROS prefers WORM media; RW support exists for completeness.
	Media25RW
)

// MaxEraseCycles is the §2.1 erase-cycle bound for rewritable media.
const MaxEraseCycles = 1000

// BluRay1X is the Blu-ray 1X reference data rate (§2.1: 4.49 MB/s).
const BluRay1X = 4.49e6

// Capacity returns the logical capacity in bytes.
func (m MediaType) Capacity() int64 {
	switch m {
	case Media25, Media25RW:
		return 25e9
	case Media100:
		return 100e9
	}
	return 0
}

// Rewritable reports whether the media supports erasing.
func (m MediaType) Rewritable() bool { return m == Media25RW }

func (m MediaType) String() string {
	switch m {
	case Media25:
		return "BD-R 25GB"
	case Media100:
		return "BDXL 100GB"
	case Media25RW:
		return "BD-RE 25GB"
	}
	return fmt.Sprintf("media(%d)", int(m))
}

// Media errors.
var (
	ErrWORMViolation = errors.New("optical: write to already-burned region")
	ErrDiscFull      = errors.New("optical: disc capacity exceeded")
	ErrDiscFailed    = errors.New("optical: disc unreadable")
	ErrBadSector     = errors.New("optical: unreadable disc sector")
	ErrNotRewritable = errors.New("optical: media is write-once")
	ErrEraseCycles   = errors.New("optical: erase-cycle limit reached")
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
	badSecs map[int64]bool
	erases  int // completed erase cycles (RW media only)
}

// NewDisc creates a blank disc.
func NewDisc(id string, m MediaType) *Disc {
	return &Disc{
		ID:      id,
		Type:    m,
		badSecs: make(map[int64]bool),
	}
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
func (d *Disc) CorruptSector(off int64) { d.badSecs[off&^(SectorSize-1)] = true }

// BadSectors returns the number of injected sector errors.
func (d *Disc) BadSectors() int { return len(d.badSecs) }

// FlipByte silently corrupts the stored byte at off: unlike CorruptSector
// the sector still reads without error, so only parity verification can
// detect the damage (bit rot below the drive's error correction). A chunk
// the disc shares with a buffer slot is copied first, so the fault stays on
// the disc.
func (d *Disc) FlipByte(off int64) { d.store.FlipByte(off) }

// EraseCycles returns the number of completed erases (RW media).
func (d *Disc) EraseCycles() int { return d.erases }

// erase blanks a rewritable disc, consuming one erase cycle. Only the Drive
// calls this (it charges the erase pass time).
func (d *Disc) erase() error {
	if !d.Type.Rewritable() {
		return fmt.Errorf("%w: %s", ErrNotRewritable, d.Type)
	}
	if d.erases >= MaxEraseCycles {
		return fmt.Errorf("%w: %s after %d cycles", ErrEraseCycles, d.ID, d.erases)
	}
	d.store = chunk.Store{}
	d.tracks = nil
	d.written = 0
	d.badSecs = make(map[int64]bool)
	d.erases++
	return nil
}

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
	for s := off &^ (SectorSize - 1); s < off+n; s += SectorSize {
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
