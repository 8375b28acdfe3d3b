// Package bucket implements OLFS's Writing Bucket Management (WBM, §4.1,
// §4.3): preliminary bucket writing into updatable UDF volumes carved out of
// the disk write buffer, the bucket lifecycle (free -> open -> filled ->
// burning -> burned/cached -> recycled), and buffer-slot accounting with LRU
// eviction of burned images. The same slots are the read cache (RC, §4.1): a
// burned image stays resident after its burn, and Cache lands an image
// fetched from a disc back in a slot, so recently used images are served
// from the buffer until the LRU reclaims them. A slot's bytes move to and
// from discs by reference (Lend, Adopt), not by copy.
package bucket

import (
	"errors"
	"fmt"
	"time"

	"ros/internal/image"
	"ros/internal/pagecache"
	"ros/internal/sim"
	"ros/internal/udf"
)

// State is a bucket's lifecycle state (Fig 5 of the paper).
type State int

// Bucket states.
const (
	StateFree State = iota
	StateOpen
	StateFilled  // sealed into an unburned disc image
	StateBurning // being burned to a disc array
	StateBurned  // on disc; buffer copy retained as read cache
)

func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateOpen:
		return "open"
	case StateFilled:
		return "filled"
	case StateBurning:
		return "burning"
	case StateBurned:
		return "burned"
	}
	return "?"
}

// Manager errors.
var (
	ErrNoFreeSlot = errors.New("bucket: write buffer full (no free or evictable slot)")
	ErrBadState   = errors.New("bucket: invalid state transition")
)

// Bucket is one buffer slot: either a UDF bucket/image or a raw area (parity
// images are not UDF volumes, §4.7).
type Bucket struct {
	Slot       int
	ID         image.ID
	Vol        *udf.Volume // nil for raw (parity) slots
	Raw        bool
	state      State
	buffer     *pagecache.Volume
	backend    *udf.Slice // the slot's window of buffer
	lastAccess time.Duration
	// PayloadBytes for raw slots (parity length); UDF slots use Vol.UsedBytes.
	PayloadBytes int64
}

// State returns the bucket's lifecycle state.
func (b *Bucket) State() State { return b.state }

// Backend returns the buffer byte range backing this bucket — the burn
// source and parity I/O target.
func (b *Bucket) Backend() udf.Backend { return b.backend }

// Lend hands out the slot's bytes [off, off+n) by reference
// (pagecache.Volume.Lend), charged as a read: the burn source.
func (b *Bucket) Lend(p *sim.Proc, off, n int64, dst [][]byte) ([][]byte, error) {
	if off < 0 || off+n > b.backend.Len {
		return dst, fmt.Errorf("bucket: lend out of range (off=%d len=%d size=%d)", off, n, b.backend.Len)
	}
	return b.buffer.Lend(p, b.backend.Off+off, n, dst)
}

// Adopt stores pieces another store lent at slot offset off, keeping whole
// chunks by reference (pagecache.Volume.Adopt), charged as a write: how a
// cache fill lands a disc image.
func (b *Bucket) Adopt(p *sim.Proc, off int64, pieces [][]byte) error {
	n := int64(0)
	for _, pc := range pieces {
		n += int64(len(pc))
	}
	if off < 0 || off+n > b.backend.Len {
		return fmt.Errorf("bucket: adopt out of range (off=%d len=%d size=%d)", off, n, b.backend.Len)
	}
	return b.buffer.Adopt(p, b.backend.Off+off, pieces)
}

// Used returns the meaningful bytes in the bucket (burn payload size).
func (b *Bucket) Used() int64 {
	if b.Raw {
		return b.PayloadBytes
	}
	if b.Vol == nil {
		return 0
	}
	return b.Vol.UsedBytes()
}

// Manager owns the buffer slots.
type Manager struct {
	env       *sim.Env
	bucketCap int64
	slots     []*Bucket
	nextSeq   uint64
	byID      map[image.ID]*Bucket

	// Stats.
	Opens    int
	Seals    int
	Recycles int
	Evicts   int
}

// NewManager carves nSlots buckets of bucketCap bytes out of buffer.
func NewManager(env *sim.Env, buffer *pagecache.Volume, bucketCap int64, nSlots int) (*Manager, error) {
	if int64(nSlots)*bucketCap > buffer.Size() {
		return nil, fmt.Errorf("bucket: buffer %d too small for %d x %d slots",
			buffer.Size(), nSlots, bucketCap)
	}
	m := &Manager{
		env:       env,
		bucketCap: bucketCap,
		byID:      make(map[image.ID]*Bucket),
	}
	for i := 0; i < nSlots; i++ {
		m.slots = append(m.slots, &Bucket{
			Slot:    i,
			state:   StateFree,
			buffer:  buffer,
			backend: udf.NewSlice(buffer, int64(i)*bucketCap, bucketCap),
		})
	}
	return m, nil
}

// Slots returns all buckets (diagnostics / maintenance interface).
func (m *Manager) Slots() []*Bucket { return m.slots }

// FreeSlots counts slots immediately available.
func (m *Manager) FreeSlots() int {
	n := 0
	for _, b := range m.slots {
		if b.state == StateFree {
			n++
		}
	}
	return n
}

// newID mints the next deterministic image ID.
func (m *Manager) newID() image.ID {
	m.nextSeq++
	return image.NewID(m.nextSeq)
}

// takeSlot reserves a free slot, evicting the least-recently-used burned
// image if necessary (the RC eviction policy, §4.1: "Read Cache retains
// some recently used disc images according to a LRU algorithm"). The slot is
// marked StateOpen *before* returning — the caller may park on formatting
// I/O, and a concurrent Open/OpenRaw must not see the slot as free.
func (m *Manager) takeSlot(p *sim.Proc) (*Bucket, error) {
	for _, b := range m.slots {
		if b.state == StateFree {
			b.state = StateOpen
			return b, nil
		}
	}
	var victim *Bucket
	for _, b := range m.slots {
		if b.state != StateBurned {
			continue
		}
		if victim == nil || b.lastAccess < victim.lastAccess {
			victim = b
		}
	}
	if victim == nil {
		return nil, ErrNoFreeSlot
	}
	m.Evicts++
	m.release(victim)
	victim.state = StateOpen
	return victim, nil
}

// release clears a bucket back to free. The ID index entry goes only if it
// points at b: a superseded copy of an image must not unregister its
// successor.
func (m *Manager) release(b *Bucket) {
	if !b.ID.IsZero() && m.byID[b.ID] == b {
		delete(m.byID, b.ID)
	}
	b.ID = image.ID{}
	b.Vol = nil
	b.Raw = false
	b.PayloadBytes = 0
	b.state = StateFree
}

// Open takes a slot and formats it as a fresh UDF bucket with a new image
// ID. "OLFS initially generates a series of empty buckets, each of which is
// a Linux loop device formatted as an updatable UDF volume" (§4.3).
func (m *Manager) Open(p *sim.Proc) (*Bucket, error) {
	b, err := m.takeSlot(p)
	if err != nil {
		return nil, err
	}
	id := m.newID()
	vol, err := udf.Format(p, b.backend, id, fmt.Sprintf("bucket-%d", b.Slot))
	if err != nil {
		m.release(b)
		return nil, err
	}
	b.ID = id
	b.Vol = vol
	b.Raw = false
	b.state = StateOpen
	b.lastAccess = p.Now()
	m.byID[id] = b
	m.Opens++
	return b, nil
}

// OpenRaw takes a slot for a raw (parity) image of length bytes.
func (m *Manager) OpenRaw(p *sim.Proc, length int64) (*Bucket, error) {
	if length > m.bucketCap {
		return nil, fmt.Errorf("bucket: raw image %d exceeds capacity %d", length, m.bucketCap)
	}
	b, err := m.takeSlot(p)
	if err != nil {
		return nil, err
	}
	b.ID = m.newID()
	b.Vol = nil
	b.Raw = true
	b.PayloadBytes = length
	b.state = StateOpen
	b.lastAccess = p.Now()
	m.byID[b.ID] = b
	m.Opens++
	return b, nil
}

// Seal closes an open bucket into an immutable disc image (§4.3: "After the
// bucket is filled up, it will transit into a disc image with the same image
// ID").
func (m *Manager) Seal(p *sim.Proc, b *Bucket) error {
	if b.state != StateOpen {
		return fmt.Errorf("%w: seal from %v", ErrBadState, b.state)
	}
	if b.Vol != nil {
		if err := b.Vol.Finalize(p); err != nil {
			return err
		}
	}
	b.state = StateFilled
	m.Seals++
	return nil
}

// MarkBurning transitions a filled image into the burning state.
func (m *Manager) MarkBurning(b *Bucket) error {
	if b.state != StateFilled {
		return fmt.Errorf("%w: burn from %v", ErrBadState, b.state)
	}
	b.state = StateBurning
	return nil
}

// MarkBurned records burn completion; the buffer copy becomes read cache.
func (m *Manager) MarkBurned(b *Bucket) error {
	if b.state != StateBurning {
		return fmt.Errorf("%w: burned from %v", ErrBadState, b.state)
	}
	b.state = StateBurned
	b.lastAccess = m.env.Now()
	return nil
}

// MarkBurnFailed returns a burning image to filled so it can be retried on
// another disc array (DAindex -> Failed for the old tray, §4.1).
func (m *Manager) MarkBurnFailed(b *Bucket) error {
	if b.state != StateBurning {
		return fmt.Errorf("%w: burn-fail from %v", ErrBadState, b.state)
	}
	b.state = StateFilled
	return nil
}

// Recycle explicitly frees a burned bucket ("The bucket can be recycled by
// clearing all data in it", §4.3).
func (m *Manager) Recycle(p *sim.Proc, b *Bucket) error {
	if b.state != StateBurned {
		return fmt.Errorf("%w: recycle from %v", ErrBadState, b.state)
	}
	m.release(b)
	m.Recycles++
	return nil
}

// Discard frees a working bucket whose contents are regenerable (a parity
// image under construction, a half-built recovery copy) after the operation
// that allocated it failed. Unlike Recycle it accepts any live state; callers
// must not discard buckets holding the only copy of user data.
func (m *Manager) Discard(b *Bucket) error {
	if b.state == StateFree {
		return fmt.Errorf("%w: discard from %v", ErrBadState, b.state)
	}
	m.release(b)
	return nil
}

// Cache brings a burned image back into the buffer as read cache (RC's fill
// half, §4.1). It takes a slot in takeSlot's order — a free one, else the
// least recently used burned image — so it never displaces an open, filled
// or burning bucket, the only copy of unburned user data. fill lands the
// image in the slot (Adopt) and returns the volume it parsed there; the
// slot stays Open (invisible to readers, never a victim) until fill returns.
// On success the copy is published as a burned image with a fresh access
// time; if fill fails, or another copy of the image became resident
// meanwhile, the slot is freed and an error returned.
func (m *Manager) Cache(p *sim.Proc, fill func(*Bucket) (*udf.Volume, error)) (*Bucket, error) {
	b, err := m.takeSlot(p)
	if err != nil {
		return nil, err
	}
	vol, err := fill(b)
	if err != nil {
		m.release(b)
		return nil, err
	}
	id := image.ID(vol.ImageID())
	if _, ok := m.byID[id]; ok {
		m.release(b)
		return nil, fmt.Errorf("%w: image %s already resident", ErrBadState, id)
	}
	b.ID = id
	b.Vol = vol
	b.state = StateBurned
	b.lastAccess = p.Now()
	m.byID[id] = b
	return b, nil
}

// Adopt re-binds a probed slot to a UDF volume rediscovered on the buffer
// after a controller crash (olfs.Reopen) or rebuilt from disc by repair. The
// bucket becomes Open or Filled depending on whether the volume was
// finalized.
func (m *Manager) Adopt(b *Bucket, v *udf.Volume) {
	if !b.ID.IsZero() && m.byID[b.ID] == b {
		delete(m.byID, b.ID)
	}
	b.ID = image.ID(v.ImageID())
	b.Vol = v
	b.Raw = false
	if v.Finalized() {
		b.state = StateFilled
	} else {
		b.state = StateOpen
	}
	b.lastAccess = m.env.Now()
	m.byID[b.ID] = b
	// Track the ID sequence so freshly minted IDs stay unique.
	var seq uint64
	for i := 8; i < 16; i++ {
		seq = seq<<8 | uint64(b.ID[i])
	}
	if seq > m.nextSeq {
		m.nextSeq = seq
	}
}

// Touch records a read-cache hit on a buffer-resident image.
func (m *Manager) Touch(b *Bucket) { b.lastAccess = m.env.Now() }

// Resident returns the buffer-resident bucket holding image id, if any.
func (m *Manager) Resident(id image.ID) (*Bucket, bool) {
	b, ok := m.byID[id]
	return b, ok
}

// FilledUnburned returns the images sealed but not yet burned, oldest slot
// first — the BTM's burn queue input.
func (m *Manager) FilledUnburned() []*Bucket {
	var out []*Bucket
	for _, b := range m.slots {
		if b.state == StateFilled {
			out = append(out, b)
		}
	}
	return out
}

// BytesByState sums payload bytes across slots per lifecycle state —
// write-path occupancy accounting (admission control, status output).
func (m *Manager) BytesByState() map[State]int64 {
	out := make(map[State]int64)
	for _, b := range m.slots {
		out[b.state] += b.Used()
	}
	return out
}
