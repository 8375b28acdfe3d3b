// Package image implements disc-image management (the paper's DIM module,
// §4.1, §4.7): image identifiers, the DAindex (disc-array state) and
// DILindex (image -> physical disc location) catalogs, and the delayed
// parity-image generation that gives a 12-disc tray RAID-5 (11+1) or RAID-6
// (10+2) redundancy across discs.
//
// Parity images are raw byte streams, not UDF volumes (§4.7: "the parity
// image is not a UDF volume").
package image

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"ros/internal/rack"
	"ros/internal/raid"
	"ros/internal/sim"
)

// ID is a universally unique disc-image identifier (§4.1).
type ID [16]byte

// NewID derives a deterministic ID from a sequence number (the simulation is
// deterministic, so IDs are too).
func NewID(seq uint64) ID {
	var id ID
	copy(id[:4], "rimg")
	for i := 0; i < 8; i++ {
		id[15-i] = byte(seq >> (8 * i))
	}
	return id
}

// String returns the canonical hex form.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// Parse decodes a canonical hex ID.
func Parse(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 16 {
		return id, fmt.Errorf("image: bad id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// MarshalText / UnmarshalText make IDs JSON-friendly map keys.
func (id ID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (id *ID) UnmarshalText(b []byte) error {
	v, err := Parse(string(b))
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// DAState is the disc-array (tray) lifecycle state (§4.1).
type DAState int

// Disc-array states: "Initially, all entries in DAindex are marked as Empty.
// Then DAindex_i will be modified to Used when disc array i is used. When
// the disc burning task for disc group j has failed, DAindex_j will be set
// to Failed."
const (
	DAEmpty DAState = iota
	DAUsed
	DAFailed
)

func (s DAState) String() string {
	switch s {
	case DAEmpty:
		return "Empty"
	case DAUsed:
		return "Used"
	case DAFailed:
		return "Failed"
	}
	return "?"
}

// DiscAddr is a physical disc location: a tray plus the position within its
// 12-disc array. Len records the image's meaningful payload bytes, which
// bounds scrub and parity-recovery I/O. Parity marks the image's role in its
// burn set: repair paths classify by this flag rather than by position
// arithmetic, so a tray whose catalog entries are partially migrated away
// can never have a data image mistaken for parity.
type DiscAddr struct {
	Tray   rack.TrayID `json:"tray"`
	Pos    int         `json:"pos"`
	Len    int64       `json:"len,omitempty"`
	Parity bool        `json:"parity,omitempty"`
}

func (a DiscAddr) String() string { return fmt.Sprintf("%v#%02d", a.Tray, a.Pos) }

// Catalog holds the DAindex and DILindex. It is serialized into MV as system
// state (§4.2: "all system running states ... are also stored in MV").
type Catalog struct {
	DA  map[string]DAState  `json:"da"`  // TrayID.String() -> state
	DIL map[string]DiscAddr `json:"dil"` // ID.String() -> physical location
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{DA: make(map[string]DAState), DIL: make(map[string]DiscAddr)}
}

// DAState returns the state of a tray (Empty if never recorded).
func (c *Catalog) DAState(id rack.TrayID) DAState { return c.DA[id.String()] }

// SetDAState records a tray state transition.
func (c *Catalog) SetDAState(id rack.TrayID, s DAState) { c.DA[id.String()] = s }

// Place records that image id lives on the disc at addr.
func (c *Catalog) Place(id ID, addr DiscAddr) { c.DIL[id.String()] = addr }

// Locate returns the physical location of an image, if burned.
func (c *Catalog) Locate(id ID) (DiscAddr, bool) {
	a, ok := c.DIL[id.String()]
	return a, ok
}

// Forget removes an image's physical location (e.g. after its disc is lost
// and the image recovered back to the buffer).
func (c *Catalog) Forget(id ID) { delete(c.DIL, id.String()) }

// ImagesOnTray returns position -> image ID for every image recorded on the
// given tray.
func (c *Catalog) ImagesOnTray(tray rack.TrayID) map[int]ID {
	out := make(map[int]ID)
	for idStr, addr := range c.DIL {
		if addr.Tray != tray {
			continue
		}
		if id, err := Parse(idStr); err == nil {
			out[addr.Pos] = id
		}
	}
	return out
}

// FindEmptyTray scans trays of a library in (roller, layer desc, slot) order
// and returns the first Empty one that physically holds a full blank array.
// Layers are scanned top-down because the arm starts at the top (§5.2).
func (c *Catalog) FindEmptyTray(lib *rack.Library) (rack.TrayID, bool) {
	for ri := range lib.Rollers {
		for l := rack.LayersPerRoller - 1; l >= 0; l-- {
			for s := 0; s < rack.SlotsPerLayer; s++ {
				id := rack.TrayID{Roller: ri, Layer: l, Slot: s}
				tray, err := lib.Tray(id)
				if err != nil {
					continue
				}
				if c.DAState(id) == DAEmpty && tray.Full() {
					return id, true
				}
			}
		}
	}
	return rack.TrayID{}, false
}

// UsedTrays returns the trays marked Used in FindEmptyTray's (roller, layer
// descending, slot) order, the order they fill in and the scrubber's rotation.
func (c *Catalog) UsedTrays() []rack.TrayID {
	var out []rack.TrayID
	for k, st := range c.DA {
		if st != DAUsed {
			continue
		}
		if id, err := rack.ParseTrayID(k); err == nil {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, func(a, b rack.TrayID) int {
		return cmp.Or(cmp.Compare(a.Roller, b.Roller), cmp.Compare(b.Layer, a.Layer), cmp.Compare(a.Slot, b.Slot))
	})
	return out
}

// MarshalJSON/Unmarshal round-trip the catalog for MV state storage.
func (c *Catalog) Marshal() ([]byte, error) { return json.Marshal(c) }

// UnmarshalCatalog decodes a catalog from MV state bytes.
func UnmarshalCatalog(b []byte) (*Catalog, error) {
	c := NewCatalog()
	if err := json.Unmarshal(b, c); err != nil {
		return nil, err
	}
	if c.DA == nil {
		c.DA = make(map[string]DAState)
	}
	if c.DIL == nil {
		c.DIL = make(map[string]DiscAddr)
	}
	return c, nil
}

// Backend is a readable/writable byte range (udf.Backend shape, and its
// buffer-ownership rules: WriteAt copies buf before returning and does not
// retain it, ReadAt fills all of buf or returns an error), which is what lets
// the parity code below reuse its strips from one call to the next.
type Backend interface {
	ReadAt(p *sim.Proc, buf []byte, off int64) error
	WriteAt(p *sim.Proc, buf []byte, off int64) error
	Size() int64
}

// Parity errors.
var (
	ErrParityCount = errors.New("image: need 1 (RAID-5) or 2 (RAID-6) parity images")
	ErrTooManyLost = errors.New("image: more erasures than parity can recover")
)

const parityChunk = 1 << 20

// Strips is a free list of the 1 MB strip buffers GenerateParity works in,
// for a caller that runs it again and again (olfs keeps one per FS). The zero
// value is ready to use. Calls on one sim.Env may overlap — exactly one
// process runs at a time, and a buffer goes back on the list only when its
// call is done with it (see Backend for why that is at return) — but a Strips
// must not be shared between environments.
type Strips struct{ free [][]byte }

func (s *Strips) get() []byte {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	return make([]byte, parityChunk)
}

// put takes strips back; a nil one (the Q accumulator of a RAID-5 call) is
// skipped.
func (s *Strips) put(strips ...[]byte) {
	for _, b := range strips {
		if b != nil {
			s.free = append(s.free, b)
		}
	}
}

// accumulate reads strip [off, off+n) of every data image and leaves P in
// pAcc and, when qAcc is non-nil, Q in qAcc. Column 0 is read straight into
// pAcc and seeds both accumulators (its Q coefficient is g^0 = 1); buf takes
// the other columns. It returns the column whose read failed.
func accumulate(p *sim.Proc, data []Backend, off int64, n int, buf, pAcc, qAcc []byte) (int, error) {
	pAcc = pAcc[:n]
	if qAcc != nil {
		qAcc = qAcc[:n]
	}
	if len(data) == 0 { // parity over nothing is zeros, not a reused strip's leftovers
		clear(pAcc)
		clear(qAcc)
	}
	for col, d := range data {
		if col == 0 {
			if err := d.ReadAt(p, pAcc, off); err != nil {
				return col, err
			}
			copy(qAcc, pAcc)
			continue
		}
		if err := d.ReadAt(p, buf[:n], off); err != nil {
			return col, err
		}
		raid.Fold(col, buf[:n], pAcc, qAcc)
	}
	return 0, nil
}

// GenerateParity builds parity image(s) from data images (§4.7, delayed
// parity generation). One parity image gives RAID-5 (P = XOR); two give
// RAID-6 (P + Q with GF(2^8) coefficients g^col). length is the image size;
// the data backends are read and parity backends written in 1 MB strips,
// charging real I/O time on both (the four-stream interference of §4.7).
func (s *Strips) GenerateParity(p *sim.Proc, data []Backend, parity []Backend, length int64) error {
	if len(parity) < 1 || len(parity) > 2 {
		return ErrParityCount
	}
	buf, pAcc := s.get(), s.get()
	var qAcc []byte
	if len(parity) == 2 {
		qAcc = s.get()
	}
	defer s.put(buf, pAcc, qAcc)
	for off := int64(0); off < length; off += parityChunk {
		n := int(min(parityChunk, length-off))
		if col, err := accumulate(p, data, off, n, buf, pAcc, qAcc); err != nil {
			return fmt.Errorf("image: parity read col %d: %w", col, err)
		}
		if err := parity[0].WriteAt(p, pAcc[:n], off); err != nil {
			return fmt.Errorf("image: parity write P: %w", err)
		}
		if qAcc != nil {
			if err := parity[1].WriteAt(p, qAcc[:n], off); err != nil {
				return fmt.Errorf("image: parity write Q: %w", err)
			}
		}
	}
	return nil
}

// GenerateParity is Strips.GenerateParity on one-shot strip buffers.
func GenerateParity(p *sim.Proc, data []Backend, parity []Backend, length int64) error {
	return new(Strips).GenerateParity(p, data, parity, length)
}

// VerifyParity re-reads all images one column at a time and checks P (and
// Q) consistency, returning the offsets (strip starts) that mismatch — the
// §4.7 idle-time sector-error scan at image granularity, and the serial
// reference for VerifyParityParallel.
func VerifyParity(p *sim.Proc, data []Backend, parity []Backend, length int64) ([]int64, error) {
	if len(parity) < 1 || len(parity) > 2 {
		return nil, ErrParityCount
	}
	var bad []int64
	buf, pAcc := make([]byte, parityChunk), make([]byte, parityChunk)
	var qAcc []byte
	if len(parity) == 2 {
		qAcc = make([]byte, parityChunk)
	}
	for off := int64(0); off < length; off += parityChunk {
		n := int(min(parityChunk, length-off))
		// A strip is bad when any column fails to read or a stored parity
		// differs; buf is free again once the data columns are folded in.
		_, err := accumulate(p, data, off, n, buf, pAcc, qAcc)
		if err == nil {
			err = parity[0].ReadAt(p, buf[:n], off)
		}
		mismatch := err != nil || !bytes.Equal(pAcc[:n], buf[:n])
		if !mismatch && qAcc != nil {
			err = parity[1].ReadAt(p, buf[:n], off)
			mismatch = err != nil || !bytes.Equal(qAcc[:n], buf[:n])
		}
		if mismatch {
			bad = append(bad, off)
		}
	}
	return bad, nil
}

// plan finds the lost (nil) data columns and the parity that recovers them
// (raid.Plan). parity[0] is P and parity[1], if any, Q; either may be nil if
// lost. On an error, useP and useQ report which parity there is.
func plan(data, parity []Backend) (lost []int, useP, useQ bool, err error) {
	for i, d := range data {
		if d == nil {
			lost = append(lost, i)
		}
	}
	haveP := len(parity) > 0 && parity[0] != nil
	haveQ := len(parity) == 2 && parity[1] != nil
	if useP, useQ, err = raid.Plan(lost, haveP, haveQ); err != nil {
		return lost, haveP, haveQ, fmt.Errorf("%w: %d data lost, P lost=%v, Q avail=%v", ErrTooManyLost, len(lost), !haveP, haveQ)
	}
	return lost, useP, useQ, nil
}

// solve turns the syndromes of one strip into the lost columns in place
// (raid.Solve) and writes lost column lost[i] to out[lost[i]] at off. pSyn
// and qSyn are the strip's syndromes, nil where plan did not pick the parity.
func solve(p *sim.Proc, lost []int, pSyn, qSyn []byte, out []Backend, off int64) error {
	var res [2][]byte
	got := res[:0]
	for _, b := range [2][]byte{pSyn, qSyn} {
		if b != nil {
			got = append(got, b)
		}
	}
	raid.Solve(lost, pSyn, qSyn, got)
	for i, c := range lost {
		if err := out[c].WriteAt(p, got[i], off); err != nil {
			return err
		}
	}
	return nil
}

// Recover reconstructs up to two lost data columns from the survivors, one
// column at a time: for each 1 MB strip it reads the parity plan picks (P,
// then Q), then the surviving columns in order, and writes the lost columns.
// data[i] == nil marks column i lost; parity[0] is P, parity[1] (optional)
// is Q, either may be nil if lost. Reconstructed columns are written to the
// corresponding out backends (out[i] must be non-nil where data[i] is nil).
func Recover(p *sim.Proc, data []Backend, parity []Backend, out []Backend, length int64) error {
	lost, useP, useQ, err := plan(data, parity)
	if err != nil || len(lost) == 0 {
		return err
	}
	buf := make([]byte, parityChunk)
	var pAcc, qAcc []byte
	if useP {
		pAcc = make([]byte, parityChunk)
	}
	if useQ {
		qAcc = make([]byte, parityChunk)
	}
	for off := int64(0); off < length; off += parityChunk {
		n := int(min(parityChunk, length-off))
		var pSyn, qSyn []byte
		if useP {
			pSyn = pAcc[:n]
			if err := parity[0].ReadAt(p, pSyn, off); err != nil {
				return err
			}
		}
		if useQ {
			qSyn = qAcc[:n]
			if err := parity[1].ReadAt(p, qSyn, off); err != nil {
				return err
			}
		}
		for col, d := range data {
			if d == nil {
				continue
			}
			if err := d.ReadAt(p, buf[:n], off); err != nil {
				return err
			}
			raid.Fold(col, buf[:n], pSyn, qSyn)
		}
		if err := solve(p, lost, pSyn, qSyn, out, off); err != nil {
			return err
		}
	}
	return nil
}
