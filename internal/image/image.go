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
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

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
	key := tray.String()
	for idStr, addr := range c.DIL {
		if addr.Tray.String() != key {
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
	if len(data) == 0 { // parity over nothing is zeros, not a reused strip's leftovers
		clear(pAcc[:n])
		if qAcc != nil {
			clear(qAcc[:n])
		}
	}
	for col, d := range data {
		if col == 0 {
			if err := d.ReadAt(p, pAcc[:n], off); err != nil {
				return col, err
			}
			if qAcc != nil {
				copy(qAcc[:n], pAcc[:n])
			}
			continue
		}
		if err := d.ReadAt(p, buf[:n], off); err != nil {
			return col, err
		}
		raid.XorSlice(buf[:n], pAcc[:n])
		if qAcc != nil {
			raid.MulXorSlice(raid.Pow2(col), buf[:n], qAcc[:n])
		}
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
		n := parityChunk
		if off+int64(n) > length {
			n = int(length - off)
		}
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
		n := parityChunk
		if off+int64(n) > length {
			n = int(length - off)
		}
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

// Recover reconstructs up to two lost data columns from the survivors.
// data[i] == nil marks column i lost; parity[0] is P, parity[1] (optional)
// is Q, either may be nil if lost. Reconstructed columns are written to the
// corresponding out backends (out[i] must be non-nil where data[i] is nil).
func Recover(p *sim.Proc, data []Backend, parity []Backend, out []Backend, length int64) error {
	var lost []int
	for i, d := range data {
		if d == nil {
			lost = append(lost, i)
		}
	}
	pLost := len(parity) < 1 || parity[0] == nil
	qAvail := len(parity) == 2 && parity[1] != nil
	switch {
	case len(lost) == 0:
		return nil
	case len(lost) == 1 && !pLost:
		return recoverOneWithP(p, data, parity[0], out[lost[0]], lost[0], length)
	case len(lost) == 1 && qAvail:
		return recoverOneWithQ(p, data, parity[1], out[lost[0]], lost[0], length)
	case len(lost) == 2 && !pLost && qAvail:
		return recoverTwo(p, data, parity[0], parity[1], out[lost[0]], out[lost[1]], lost[0], lost[1], length)
	default:
		return fmt.Errorf("%w: %d data lost, P lost=%v, Q avail=%v", ErrTooManyLost, len(lost), pLost, qAvail)
	}
}

func recoverOneWithP(p *sim.Proc, data []Backend, pty, out Backend, lost int, length int64) error {
	buf := make([]byte, parityChunk)
	acc := make([]byte, parityChunk)
	for off := int64(0); off < length; off += parityChunk {
		n := parityChunk
		if off+int64(n) > length {
			n = int(length - off)
		}
		if err := pty.ReadAt(p, acc[:n], off); err != nil {
			return err
		}
		for col, d := range data {
			if col == lost {
				continue
			}
			if err := d.ReadAt(p, buf[:n], off); err != nil {
				return err
			}
			raid.XorSlice(buf[:n], acc[:n])
		}
		if err := out.WriteAt(p, acc[:n], off); err != nil {
			return err
		}
	}
	return nil
}

func recoverOneWithQ(p *sim.Proc, data []Backend, qty, out Backend, lost int, length int64) error {
	buf := make([]byte, parityChunk)
	acc := make([]byte, parityChunk)
	inv := raid.Inv(raid.Pow2(lost))
	for off := int64(0); off < length; off += parityChunk {
		n := parityChunk
		if off+int64(n) > length {
			n = int(length - off)
		}
		if err := qty.ReadAt(p, acc[:n], off); err != nil {
			return err
		}
		for col, d := range data {
			if col == lost {
				continue
			}
			if err := d.ReadAt(p, buf[:n], off); err != nil {
				return err
			}
			raid.MulXorSlice(raid.Pow2(col), buf[:n], acc[:n])
		}
		for i := 0; i < n; i++ {
			acc[i] = raid.Mul(acc[i], inv)
		}
		if err := out.WriteAt(p, acc[:n], off); err != nil {
			return err
		}
	}
	return nil
}

func recoverTwo(p *sim.Proc, data []Backend, pty, qty, outX, outY Backend, x, y int, length int64) error {
	buf := make([]byte, parityChunk)
	pxy := make([]byte, parityChunk)
	qxy := make([]byte, parityChunk)
	dx := make([]byte, parityChunk)
	dy := make([]byte, parityChunk)
	for off := int64(0); off < length; off += parityChunk {
		n := parityChunk
		if off+int64(n) > length {
			n = int(length - off)
		}
		if err := pty.ReadAt(p, pxy[:n], off); err != nil {
			return err
		}
		if err := qty.ReadAt(p, qxy[:n], off); err != nil {
			return err
		}
		for col, d := range data {
			if col == x || col == y {
				continue
			}
			if err := d.ReadAt(p, buf[:n], off); err != nil {
				return err
			}
			raid.XorSlice(buf[:n], pxy[:n])
			raid.MulXorSlice(raid.Pow2(col), buf[:n], qxy[:n])
		}
		raid.SolveTwoErasures(x, y, pxy[:n], qxy[:n], dx[:n], dy[:n])
		if err := outX.WriteAt(p, dx[:n], off); err != nil {
			return err
		}
		if err := outY.WriteAt(p, dy[:n], off); err != nil {
			return err
		}
	}
	return nil
}
